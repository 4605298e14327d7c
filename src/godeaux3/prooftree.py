"""The full proof tree: every check as a node of one data-flow graph.

A node is ``(id, kind, deps, closes, fn, premises)``.  ``fn`` receives the
outcomes of its dependencies and returns one :class:`Outcome`; each premise reads
them as ``(ok, text)``, and ``ProofNode.run`` appends ``text`` as a premise line,
or ``premise fails: text`` and fails the node.  ``closes`` names the case ids,
pencil labels and ``(l, n - 3l)`` branches the node closes.  Of the 145 edges,
101 go to computed nodes, and each decides: a one-step change of its outcome
changes some status, but for the margin of ``p.no3lirr``'s read of ``p.equiv0``.
An edge to an axiom is never read: the node fails when the axiom is withdrawn.
A label that the Euler pass and the lattice eliminations leave alive is closed
only by ``coverage``, once every one of its branches is.  Nodes are formula
checks, enumerations matched against fixtures, eliminations expected to end in a
contradiction, or explicitly assumed axioms.  The root holds only when the three
main cases are closed, the third one branch by branch.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import adjoint, cover, delpezzo, fibration, pencil, plane, ruled

SCHEMA_VERSION = "1"

VERIFIED = "verified"
CONTRADICTION = "contradiction-as-expected"
AXIOM = "axiom-assumed"
FAILED = "failed"


class Outcome:
    """What a node established.

    ``value`` is what its consumers read, ``sides`` the two printed sides of
    an elimination, and ``closes`` what the node closes once it holds.
    """

    __slots__ = ("status", "value", "sides", "trace", "closes")

    def __init__(self, status: str, value: object = None, sides: tuple[str, str] | None = None,
                 trace: list[str] | None = None) -> None:
        self.status, self.value, self.sides = status, value, sides
        self.trace = [] if trace is None else trace
        self.closes: tuple = ()


class ProofNode(NamedTuple):
    id: str
    kind: str  # formula-check | enumeration | elimination | axiom
    title: str
    deps: tuple[str, ...]
    closes: tuple
    fn: Callable[[dict[str, Outcome]], Outcome]
    premises: tuple[Callable[[dict[str, Outcome]], tuple[bool, str]], ...] = ()

    def run(self, ins: dict[str, Outcome]) -> Outcome:
        """``fn``'s outcome with one premise line per premise, in order."""
        out = self.fn(ins)
        for premise in self.premises:
            ok, text = premise(ins)
            out.trace.append(text if ok else f"premise fails: {text}")
            if not ok:
                out.status = FAILED
        if out.status != FAILED:
            out.closes = self.closes
        return out


EXPECTED = delpezzo._Fixture("expected.json")


def _axiom(ax_id: str):
    statement, citation = EXPECTED["axioms"][ax_id]
    return lambda _: Outcome(AXIOM, trace=[f"assumed: {statement}", f"source: {citation}"])


def _check(ok: bool, trace: list[str], value=None, status: str = VERIFIED) -> Outcome:
    return Outcome(status if ok else FAILED, value, trace=trace)


def _from_elimination(elim: fibration.Elimination, expect: str = "contradiction",
                      sides: tuple[str, str] | None = None) -> Outcome:
    """An elimination's outcome: its verdict as expected, with the printed sides."""
    trace = [f"{elim.prop_id}: {elim.lhs} vs {elim.rhs} -> {elim.verdict}", *elim.trace]
    if elim.survivors:
        trace.append(f"survivors: {list(elim.survivors)}")
    ok = elim.verdict == expect
    if sides and (elim.lhs, elim.rhs) != sides:
        ok = False
        trace.append(f"expected printed sides {sides}")
    status = CONTRADICTION if expect == "contradiction" else VERIFIED
    return Outcome(status if ok else FAILED, elim.survivors, (elim.lhs, elim.rhs), trace)


# -- premises: readers ins -> (ok, text) ---------------------------------------------


def _traps(*squares: int):
    """The node traps curves of these squares, each of which e.fibre verified."""
    want = sorted(set(squares))
    return lambda ins: (set(want) <= ins["e.fibre"].value.keys(),
                        f"e.fibre verified the trapped squares {want}")


def _admits(node: str, name: str, value):
    """``node``'s value admits ``value`` of ``name``."""
    return lambda ins: (value in ins[node].value, f"{node} admits {name} = {value}")


def _options_left(branch: str, verdict: str):
    """b0.tables leaves ``verdict`` options in ``branch``, which the node closes."""
    def read(ins):
        left = [o for o in ins["b0.tables"].value[branch][1] if o["verdict"] == verdict]
        return bool(left), f"it closes the {branch} {verdict} options {left}"

    return read


def _audit(elim, variant: str):
    """The audit ``elim`` on the fourteen-point table of ``variant`` that tables.printed
    verified."""
    return lambda ins: _from_elimination(elim(ins["tables.printed"].value[f"14pt:{variant}"]))


def _reads(read, want, text: str):
    """What ``read`` takes from the node's inputs is ``want``; ``text`` shows it."""
    return lambda ins: ((got := read(ins)) == want, text.format(got))


def _all_closed(ins: dict[str, Outcome]) -> Outcome:
    """A composite elimination holds when every sub-elimination it reads does."""
    trace = [f"{d}: {o.status}" for d, o in ins.items()]
    return _check(all(o.status == CONTRADICTION for o in ins.values()), trace,
                  status=CONTRADICTION)


# -- the cover and the main cases -------------------------------------------------


# the paper's closed forms of h_1 and K_Y^2 on each main case's data, by case id
_H1 = {"iii": lambda r: 4 + r.ell, "ii": lambda r: r.ell - 2,
       "i": lambda r: (3 - r.gamma_sq) // 2 + r.ell}
_KY2 = {"iii": lambda r: -2 - 3 * r.ell, "ii": lambda r: -3 - 3 * r.ell,
        "i": lambda r: -4 - 3 * r.ell + (3 * r.gamma_sq - 1) // 2}


def _e_fixed(_) -> Outcome:
    """h_1 + 2 h_2 on the grid of every main case; the value maps each case id to its grid."""
    cases = cover.MAIN_CASES
    grids = {"iii": [cases["iii"].datum(ell) for ell in range(0, 4)],
             "ii": [cases["ii"].datum(ell) for ell in range(2, 5)],
             "i": [cases["i"].datum(ell, g) for g, ell in fibration.case_i_grid()]}
    ok = all(cover.fixed_point_budget(r) == _H1[cid](r) + 2 * r.h2
             for cid, grid in grids.items() for r in grid)
    trace = ["pencil case: h1+2h2 = 6 + l, so h1 = 4 + l for l = 0..3",
             "second case: h1+2h2 = 6 + l, so h1 = l - 2 for l = 2..4",
             "first case: h1+2h2 = 6 + (3 - Gamma^2)/2 + l over the whole grid"]
    return _check(ok, trace, grids)


def _e_ky(ins) -> Outcome:
    """K_Y^2 on e.fixed's grids; the value maps each case id to {datum: K_Y^2}."""
    values = {cid: {r: cover.quotient_k2(r) for r in grid}
              for cid, grid in ins["e.fixed"].value.items()}
    ok = all(ky2 == _KY2[cid](r) for cid, ky2s in values.items() for r, ky2 in ky2s.items())
    trace = [f"pencil case l={r.ell}: K_Y^2 = {ky2}" for r, ky2 in values["iii"].items()]
    trace += [f"second case l={r.ell}: K_Y^2 = {ky2}, e(Y) = {12 - ky2}"
              for r, ky2 in values["ii"].items()]
    trace.append("first case: K_Y^2 = -4 - 3l + (3 Gamma^2 - 1)/2 over the whole grid")
    return _check(ok, trace, values)


def _e_kx(ins) -> Outcome:
    """K_X^2 two ways on e.ky's grids; the value is e.ky's, so confirmed."""
    ky2s = ins["e.ky"].value
    ok = all(cover.kx2(r, ky2) == cover.kx2_via_blowup(r)
             for grid in ky2s.values() for r, ky2 in grid.items())
    ok &= all(ky2 >= cover.kx2(r, ky2) for r, ky2 in ky2s["i"].items())  # e(X) >= e(Y)
    trace = ["K_X^2 = 3 K_Y^2 - 4 R_0^2 + 4 R_0.K = K_S^2 - (h_1 + 3 h_2) on the K_Y^2 grid"]
    trace.append("case with R_0.K = 1 also satisfies K_Y^2 >= K_X^2")
    return _check(ok, trace, ky2s)


def _p_rk(_) -> Outcome:
    """The h^0 pairs of the three main cases; the value maps (R_0.K, h_2) to them."""
    pairs = {}
    trace = []
    ok = True
    for (r0k, h2), (h0n, h0b) in (((1, 3), (3, 1)), ((0, 4), (2, 2)), ((0, 1), (2, 0))):
        got = pairs[r0k, h2] = cover.h0_pair(r0k, h2)
        ok &= got == (h0n, h0b)
        trace.append(f"(R_0.K, h_2) = ({r0k}, {h2}): h^0 pair {got}")
    for bad in ((0, 7), (1, 6), (1, 0)):
        try:
            cover.h0_pair(*bad)
            ok = False
        except cover.CaseInvalidError:
            trace.append(f"{bad} rejected")
    return _check(ok, trace, pairs)


def _cases_main(ins) -> Outcome:
    """The three main cases, each with the h^0 pair p.rk derived for it."""
    cases = cover.enumerate_main_cases()
    got = [[c.r0k, c.h2] for c in cases]
    ok = got == EXPECTED["main_cases"] and [c.id for c in cases] == ["i", "ii", "iii"]
    ok &= {(c.r0k, c.h2): (c.h0_n, c.h0_2kb) for c in cases} == ins["p.rk"].value
    trace = [f"cases: {[(c.id, c.r0k, c.h2) for c in cases]}",
             f"h_2 <= {cover.H2_WINDOWS} by R_0.K_S, past which h^0(2K_Y+B) is out of range",
             "each case carries the h^0 pair p.rk derives for it"]
    return _check(ok, trace, cases)


# -- the invariant pencil ----------------------------------------------------------


def _le_sub(_) -> Outcome:
    branches = pencil.subsystem_split()
    got = [(b.ak, b.phik, b.a2_options, b.pa_phi_max) for b in branches]
    expect = [(2, 1, (0, 2, 4), 2), (3, 0, (1, 3, 5, 7), 0), (3, 0, (9,), None)]
    trace = [f"branches: {got}"]
    return _check(got == expect, trace, branches)


def _r_r0(ins) -> Outcome:
    """A.R_0 <= A.Phi = 3 A.K_S - A^2 on every branch; the value maps A^2 to the bound."""
    bounds = {}
    ok = True
    for b in ins["le.sub"].value:
        for a2 in b.a2_options:
            bounds[a2] = pencil.ar0_upper(a2, b.phik)
            ok &= bounds[a2] == 3 * b.ak - a2 >= 0
    return _check(ok, [f"A.Phi bounds by A^2: {bounds}"], bounds)


def _pencil_list(aprime2: int):
    def fn(ins) -> Outcome:
        cases = pencil.enumerate_pencil_cases(aprime2)
        got = [[c.label, c.a2, c.ar0, c.g, c.apk, c.d_string()] for c in cases]
        expect = EXPECTED["pencil_lists"][str(aprime2)]
        trace = [f"{len(cases)} cases: " + "; ".join(
            f"{c.label}: A^2={c.a2} A.R_0={c.ar0} g={c.g} A'.K={c.apk} D={c.d_string()}"
            for c in cases)]
        if got != expect:
            trace.append(f"expected {expect}")
        in_range = all(0 <= c.ar0 <= ins["r.R0"].value[c.a2] for c in cases)
        trace.append("every case has 0 <= A.R_0 <= A.Phi")
        loose = pencil.enumerate_pencil_cases(aprime2, apply_orbit_filters=False)
        superset = {(c.a2, c.ar0, c.g, c.d) for c in loose} >= {
            (c.a2, c.ar0, c.g, c.d) for c in cases}
        trace.append(f"without the orbit filters the list grows to {len(loose)} candidates")
        return _check(got == expect and in_range and superset, trace, cases)

    return fn


def _e_g(ins) -> Outcome:
    """The genus identity, A.K_S read from le.sub, which each record's ``ak`` must match;
    the value maps each list to its cases."""
    ak = {a2: b.ak for b in ins["le.sub"].value for a2 in b.a2_options}
    lists = {dep: ins[dep].value for dep in ("p.list0", "p.list1", "r.N")}
    ok = True
    trace = []
    for cases in lists.values():
        for c in cases:
            d = dict(c.d)
            dg = d.get("F", 0) - 3 * d.get("G", 0) + d.get("H", 0)  # D.G, with G^2 = -3
            de = -sum(m for comp, m in c.d if comp.startswith("E"))
            g = pencil.genus_from_case(ak[c.a2], c.ar0, dg, de, c.aprime2)
            ok &= c.ak == ak[c.a2] and g == c.g
            ok &= c.apk == 2 * c.g - 2 - c.aprime2
    trace.append("genus identity and A'.K_Y = 2g - 2 - A'^2 hold on every emitted case")
    return _check(ok, trace, lists)


# -- the adjoint ladder -----------------------------------------------------------


def _p_comp(ins) -> Outcome:
    """The ladder's row N_1 at n = 0 on the pencil grid and case (i)'s largest K_Y^2,
    checked where the recurrence is not; the value maps each case id to {datum: row}."""
    ky2s = ins["e.KX"].value
    # the second main case has no adjoint ladder
    first = max(ky2s["i"], key=ky2s["i"].get)
    rows = {cid: {r: adjoint.adjoint_table(r.r0k, ky2s[cid][r], r.h2, (0,))[0] for r in data}
            for cid, data in (("iii", ky2s["iii"]), ("i", [first]))}
    ky2, row = ky2s["i"][first], rows["i"][first]
    ok = row.ni2 == row.pa == 4 + ky2 and row.prev_dot == 2
    trace = [f"first case K_Y^2 = {ky2}, n = 0: N_1^2 = p_a(N_1) = 4 + K_Y^2 + n "
             f"= {row.ni2}, N.N_1 = {row.prev_dot}"]
    return _check(ok, trace, rows)


def _le_z(ins) -> Outcome:
    """The cycle-count bound is -N_1^2 at n = 0 on each row of p.comp, by pencil l."""
    rows = ins["p.comp"].value
    bounds = {cid: {r: adjoint.z_lower_bound(r.r0k, r.r0sq, r.h2) for r in case_rows}
              for cid, case_rows in rows.items()}
    ok = all(bound == -rows[cid][r].ni2 for cid, by_datum in bounds.items()
             for r, bound in by_datum.items())
    trace = [f"pencil case l={r.ell}: n >= {bound} = -N_1^2 at n = 0"
             for r, bound in bounds["iii"].items()]
    trace += [f"first case (Gamma^2={r.gamma_sq}, l={r.ell}): n >= {bound} = -N_1^2 at n = 0"
              for r, bound in bounds["i"].items()]
    return _check(ok, trace, {r.ell: bound for r, bound in bounds["iii"].items()})


def _l_n(ins) -> Outcome:
    """n from le.Z's bound to where h^0(N|_N1) = 2 + 3l - n is 2; by l, that range."""
    ok = True
    trace = []
    ranges = {}
    for ell, bound in sorted(ins["le.Z"].value.items()):
        lo = max(0, bound)
        ranges[ell] = lo, lo + adjoint.restriction_dim(ell, lo) - 2
        ok &= ranges[ell] == adjoint.n_range(ell)
        trace.append(f"l={ell}: h^0(N|_N1) = 2+3l-n stays >= 2 on {list(ranges[ell])}")
    ok &= ranges[0] == (0, 0)
    trace.append("l=0 forces n=0")
    return _check(ok, trace, ranges)


def _ladder(branch: str, expected_forced: dict):
    """The branch's ladder at l = 1 (and l = 0 for the deepest one); the value
    maps l to its report."""
    def fn(_) -> Outcome:
        ells = (1, 0) if branch == "s.3l" else (1,)
        reports = {ell: adjoint.verify_ladder_identity(branch, ell) for ell in ells}
        ok = all(r.ok for r in reports.values())
        trace = []
        for r in reports.values():
            trace += [f"{branch}: ok={r.ok}, forced counts {r.forced}"] + r.failures
            ok &= all(r.forced.get(k) == v for k, v in expected_forced.items())
        if branch == "s.3l":
            ok &= adjoint.n_prime_one_is_contradiction()
            trace.append("n' = 1 would force N_1 = N_2, i.e. an effective canonical class")
        return _check(ok, trace, reports)

    return fn


def _steps(ins, branch: str, ell: int) -> int:
    """Adjoint steps up to N in ``branch``'s ladder at ``ell``: its levels but the last."""
    return len(ins[branch].value[ell].counts) - 1


# -- Euler-number eliminations ------------------------------------------------------


# the squares of what a fibre traps: the named curves, and case (i)'s Gamma'
_EXC_B0 = (fibration.EXC_SQ, fibration.B0_SQ)
_GAMMA_SQS = tuple(cover.image_square(g) for g, _ in fibration.case_i_grid() if g < 0)


def _e_fibre(_) -> Outcome:
    """The node bound against each square a run traps, case (i)'s Gamma' included."""
    ok = True
    trace = []
    verified = {}
    # a (-n)-curve closed by a transverse component contributes at least n
    for n in sorted({-sq for sq in (*_EXC_B0, fibration.CYCLE_SQ, *_GAMMA_SQS)}):
        bound = fibration.node_bound([(1, 0, {1: n}), (1, 0, {})])
        verified[-n] = fibration.min_contribution(-n)
        ok &= bound >= n == verified[-n]
        trace.append(f"(-{n})-curve: node bound {bound} >= contribution {n}")
    ok &= fibration.node_bound([(1, 0, {1: 1}), (1, 0, {})]) == 1
    ok &= fibration.node_bound([]) == 0
    trace.append("two (-1)-curves meeting once give 1; a smooth fibre gives 0")
    return _check(ok, trace, verified)


def _l_n1(ins) -> Outcome:
    """The N_1^2 left by the index theorem, N.N_1 read from p.comp's case (i) row."""
    (row,) = ins["p.comp"].value["i"].values()
    nn1 = row.prev_dot
    values = fibration.n1_squares(nn1)
    return _check(values == [0, 1], [f"N.N_1 = {nn1}: (3N_1 - 2N)^2 <= 0 pins N_1^2 to {values}"],
                  values)


def _euler_pass(list_node: str, printed: dict | None = None):
    """The Euler test over one list of e.g, each case keeping the l the survivor fixture
    gives it, each with an n-range in l.n; the value maps labels to eliminations."""
    def fn(ins) -> Outcome:
        cases = ins["e.g"].value[list_node]
        results = {c.label: fibration.eliminate_by_delta(c) for c in cases}
        table = EXPECTED["survivors_after_euler"]
        ok = all(e.survivors == tuple(int(ell) for ell, labs in table.items() if lab in labs)
                 for lab, e in results.items())
        trace = []
        for lab, e in sorted(results.items()):
            trace.append(f"({lab}): {e.lhs} vs {e.rhs} -> surviving l {list(e.survivors)}")
            if printed and lab in printed:
                ok &= (e.lhs, e.rhs) == printed[lab]
        ok &= all(ell in ins["l.n"].value for e in results.values() for ell in e.survivors)
        trace.append("l.n gives a range of n at every surviving l")
        return _check(ok, trace, results)

    return fn


def _p_1(ins) -> Outcome:
    """The A'^2 = 1 pass; in (1e) every component of B_0 meets the moving part."""
    out = _euler_pass("p.list1")(ins)
    for ell in out.value["1e"].survivors:
        dists = fibration.p1e_meeting_distributions(out.value["1e"].case, ell)
        if not dists or any(min(d) < 1 for d in dists):
            out.status = FAILED
        out.trace.append(f"(1e) with l={ell}: admissible B_0 distributions {dists}")
    return out


def _t_iii(ins) -> Outcome:
    """The value maps each surviving l to the records of the cases left there, by label."""
    passes = {**ins["p.0"].value, **ins["p.1"].value, **ins["p.3"].value}
    got = fibration.t_iii_survivors(passes)
    want = {int(k): tuple(v) for k, v in EXPECTED["survivors_after_euler"].items()}
    trace = [f"l={ell}: {list(labs)}" for ell, labs in sorted(got.items())]
    records = {ell: {lab: passes[lab].case for lab in labs} for ell, labs in got.items()}
    return _check(got == want, trace, records)


def _survivals(ins, label: str) -> dict[int, pencil.PencilCase]:
    """Each l at which ``label`` survives the Euler pass, with the record t.iii hands on."""
    return {ell: cases[label] for ell, cases in ins["t.iii"].value.items() if label in cases}


def _t_no4(ins) -> Outcome:
    """n = 3l - 4 at the largest l at which (1e) survives, whose moving part it reads."""
    left = _survivals(ins, "1e")
    return _from_elimination(fibration.elim_t_no4(left[max(left)]))


def _offsets(ins) -> list[int]:
    """n - 3l over each n of each l at which (1e) survives, largest first."""
    return sorted({n - 3 * ell for ell in _survivals(ins, "1e")
                   for n in range(ins["l.n"].value[ell][0], ins["l.n"].value[ell][1] + 1)},
                  reverse=True)


def _p_1e(ins) -> Outcome:
    """(1e) at each n of each l it survives at, but n - 3l = -4, which t.no4 closes."""
    left = _survivals(ins, "1e")
    return _from_elimination(fibration.elim_p_1e(
        left[min(left)], tuple(off for off in _offsets(ins) if off != -4)))


def _t_no4_cases(ins) -> tuple[bool, str]:
    """From the least l of t.iii at which n_range reaches n = 3l - 4, only (1e) is left."""
    cases = ins["t.iii"].value
    bound = min(ell for ell in cases if adjoint.n_range(ell)[0] <= 3 * ell - 4)
    late = sorted({lab for ell, labs in cases.items() if ell >= bound for lab in labs})
    return late == ["1e"], f"the cases left at l >= {bound} are {late}"


def _t_no4_closes(ins) -> tuple[bool, str]:
    offsets = _offsets(ins)
    return (-4 not in offsets or ins["t.no4"].status == CONTRADICTION,
            f"n - 3l runs over {offsets}; t.no4 closes -4")


def _p_no0d(ins) -> Outcome:
    """(0d) dies at the one l it survives at."""
    left = _survivals(ins, "0d")
    if len(left) != 1:
        return Outcome(FAILED, trace=[f"(0d) survives at l in {list(left)}, not at one l"])
    (ell, case), = left.items()
    return _from_elimination(fibration.elim_p_no0d(case, ell))


_L0 = ("0a", "0c", "0f")


def _p_l0(ins) -> Outcome:
    """Cases (0a), (0c), (0f) die at n = 0, l = 0, the one l they survive at."""
    left = [_survivals(ins, lab) for lab in _L0]
    table = fibration.elim_p_l0([cases[min(cases)] for cases in left])
    trace = [line for k, e in sorted(table.items())
             for line in (f"{k}: {e.lhs} vs {e.rhs} -> {e.verdict}", *e.trace)]
    return _check(all(e.verdict == "contradiction" for e in table.values()), trace,
                  status=CONTRADICTION)


def _t_iii2(ins) -> Outcome:
    """The survivors of t.iii less the labels that a closer read here closes as a
    contradiction."""
    closed = {lab for d, o in ins.items() if d != "t.iii" and o.status == CONTRADICTION
              for lab in o.closes}
    got = fibration.t_iii2_survivors(ins["t.iii"].value, closed)
    want = {int(k): tuple(v) for k, v in EXPECTED["survivors_final"].items()}
    trace = [f"closed by the lattice eliminations: {sorted(closed)}"]
    trace += [f"l={ell}: {list(labs)}" for ell, labs in sorted(got.items())]
    return _check(got == want, trace, got)


def _branches(ell: int, n: int) -> list[tuple]:
    """Branches of (l, n): from n = 3l - 1 up, a ruled and an eight-point one."""
    off = n - 3 * ell
    return [(ell, off, sub) for sub in ("ruled", "eight-point")] if off >= -1 else [(ell, off)]


def _coverage(ins) -> Outcome:
    """Every (l, n) branch the final survivor table leaves is closed by a node read here."""
    ok = True
    trace = []
    for ell in sorted(ins["t.iii2"].value):
        lo, hi = ins["l.n"].value[ell]
        for n in range(lo, hi + 1):
            for branch in _branches(ell, n):
                closers = [d for d, o in ins.items()
                           if o.status == CONTRADICTION and branch in o.closes]
                ok &= bool(closers)
                sub = f" ({branch[2]})" if len(branch) == 3 else ""
                trace.append(f"l={ell} n={n}{sub}: closed by {', '.join(closers) or 'no node'}")
    bound = min(ell for ell, (lo, _) in ins["l.n"].value.items() if lo <= 3 * ell - 4)
    trace.append("cases with l >= 2 carry the eliminated label (1e); "
                 f"n = 3l - 4 needs l >= {bound} and dies with it")
    return _check(ok, trace)


def _t_final(ins) -> Outcome:
    want = {"t.i": CONTRADICTION, "t.ii": CONTRADICTION, "coverage": VERIFIED}
    trace = [f"{d}: {ins[d].status}" for d in want]
    ok = all(ins[d].status == s for d, s in want.items())
    trace.append("no order-3 automorphism exists: every branch of the case tree "
                 "ends in a verified contradiction" if ok else "a main case is open")
    return _check(ok, trace)


# -- plane models ------------------------------------------------------------------


def _e_sys(_) -> Outcome:
    sols = plane.solve_multiplicity_system(2, 2, 8)
    got = [[d, {str(j): s for j, s in sorted(sol.items(), reverse=True)}]
           for d, sol in sols]
    want = EXPECTED["diophantine_solutions"]
    trace = [f"{len(sols)} solutions: {[(d, s) for d, s in sols]}"]
    return _check(got == want, trace, sols)


def _p_equiv0(ins) -> Outcome:
    """One orbit, no chain longer than the spread of the degrees; the top state's degree."""
    sols = ins["e.sys"].value
    chains = plane.cremona_orbit_connect(sols)
    longest = max(len(p) for p in chains.values())
    spread = max(d for d, _ in sols) - min(d for d, _ in sols)
    trace = [f"all {len(chains)} solutions reachable; longest chain {longest} moves"]
    trace += [f"d0={state[0]}: {len(chains[state])} moves" for state in sorted(chains)]
    return _check(len(chains) == 7 and longest <= spread, trace, max(chains)[0])


def _b0_tables(ins) -> Outcome:
    """Both option tables from the cycle counts their ladders verified at l = 1; the
    value maps branch to those counts and its options."""
    counts = {"deepest": ins["s.3l"].value[1].counts, "middle": ins["s.3l-1"].value[1].counts}
    value = {branch: (c, delpezzo.options("B0", c)) for branch, c in counts.items()}
    deep, mid = value["deepest"][1], value["middle"][1]
    ex, op, pin = "excluded", "open", "pinned-to-pencil"
    ok = [o["verdict"] for o in deep + mid] == [ex, op, pin, ex, ex, op, pin, pin, ex]
    trace = [f"deepest branch options: {deep}", f"middle branch options: {mid}",
             "each table has one column per cycle its ladder forces"]
    return _check(ok, trace, value)


def _sixtuples(ins) -> Outcome:
    """The six-tuples; the value lists those kept."""
    st = delpezzo.sixtuple_enumerate()
    got = [list(t) for t in st["kept"]]
    trace = [f"kept {st['kept']}", f"excluded {st['excluded']}"]
    return _check(got == EXPECTED["sixtuples"] and len(st["excluded"]) == 2, trace, st["kept"])


def _e_f2(_) -> Outcome:
    """The plane models of F' and H'; the value lists their admissible pairs."""
    sols = delpezzo.exceptional_curve_solutions()
    ok = sols["by_kind"] == {"conic": 3, "line": 6, "contracted": 6}
    trace = [f"solutions by kind: {sols['by_kind']}",
             f"admissible pairs: {sols['admissible_pairs']}"]
    return _check(ok, trace, sols["admissible_pairs"])


def _tables_printed(ins) -> Outcome:
    """Every printed table, one per kept six-tuple and one per admissible F'/H' pair; the
    value maps the name of each table that verifies to that table."""
    ok = True
    trace = []
    verified = {}
    for name, table in delpezzo.all_printed_tables():
        passed, violations = plane.verify_config_table(table)
        ok &= passed
        verified |= {name: table} if passed else {}
        trace.append(f"{name}: {'ok' if passed else violations}")
    eight = {name[4:]: t for name, t in verified.items() if name.startswith("8pt:")}
    ok &= eight.keys() == {"-".join(map(str, t)) for t in ins["sixtuples"].value}
    for key, table in sorted(eight.items()):
        ok &= delpezzo.check_8pt_pairings(key, table)
    trace.append("one eight-point table per kept six-tuple; genus-one pencil pairings match")
    fourteen = {tuple(sorted(delpezzo.KINDS[t.row(fh).degree] for fh in "FH"))
                for name, t in verified.items() if name.startswith("14pt:") and name != "14pt:base"}
    ok &= fourteen == set(ins["e.f2"].value)
    trace.append("one fourteen-point table per admissible pair of F'/H' plane models")
    ok = ok and delpezzo.lines_to_contracted_move(verified["14pt:lines-lines"])
    trace.append("the quadratic move based at P3, P4, P8 sends the two-lines table "
                 "to the line + contracted one")
    return _check(ok, trace, verified)


# -- the tree -----------------------------------------------------------------------


def build_nodes() -> dict[str, ProofNode]:
    nodes = [ProofNode(ax_id, "axiom", statement, (), (), _axiom(ax_id))
             for ax_id, (statement, _) in EXPECTED["axioms"].items()]

    def add(node_id, kind, title, deps, fn, *premises, closes=()):
        nodes.append(ProofNode(node_id, kind, title, tuple(deps), tuple(closes), fn, premises))

    euler = ("e.g", "e.fibre", "ax.euler-fibration", "l.n")
    final_labels = sorted({lab for labs in EXPECTED["survivors_final"].values() for lab in labs})
    add("e.fixed", "formula-check", "isolated fixed point budget", (), _e_fixed)
    add("e.ky", "formula-check", "two routes to K_Y^2 agree",
        ("e.fixed", "ax.kv-vanishing"), _e_ky)
    add("e.KX", "formula-check", "K_X^2 by Hurwitz and by blow-up count", ("e.ky",), _e_kx)
    add("p.rk", "formula-check", "h^0(N) and h^0(2K_Y+B)",
        ("ax.kv-vanishing", "ax.split", "ax.trican-birational"), _p_rk)
    add("cases.main", "enumeration", "exactly three main cases", ("p.rk",), _cases_main)
    add("le.sub", "enumeration", "moving/fixed split of the invariant system",
        ("ax.miyaoka-trican", "ax.lesub-irred"), _le_sub)
    add("r.R0", "formula-check", "upper bound for A.R_0", ("le.sub",), _r_r0)
    for ap in (0, 1, 2):
        bound = ("r.R0",) if ap < 2 else ()  # A'^2 = 2 emits no shape whose bound to read
        add(f"p.list{ap}", "enumeration", f"pencil shapes with A'^2 = {ap}",
            (*bound, "ax.drop-shapes", "ax.orbit-structure"), _pencil_list(ap))
    add("r.N", "enumeration", "the single shape with A' = N", ("r.R0",), _pencil_list(3))
    add("e.g", "formula-check", "genus identity on every emitted case",
        ("le.sub", "p.list0", "p.list1", "r.N"), _e_g)
    add("p.comp", "formula-check", "numerical table of the adjoint ladder",
        ("ax.ccm2-contraction", "e.KX"), _p_comp)
    add("le.Z", "formula-check", "lower bound for the cycle count",
        ("p.comp", "ax.ccm2-contraction"), _le_z)
    add("l.n", "formula-check", "3l - 4 <= n <= 3l", ("le.Z",), _l_n)
    add("s.3l", "formula-check", "deepest ladder as a lattice identity",
        ("ax.keffective",), _ladder("s.3l", {"n'": 0, "n'''": 1}))
    add("s.3l-1", "formula-check", "middle ladder as a lattice identity",
        (), _ladder("s.3l-1", {"n'": 2, "n''": 1}))
    add("s.3l-2", "formula-check", "shallow ladder as a lattice identity",
        (), _ladder("s.3l-2", {"n'": 5}))
    add("e.fibre", "formula-check", "node bound dominates the fibre contributions",
        ("ax.fibre-nodes",), _e_fibre)

    # the first and second main cases
    add("l.n1", "formula-check", "N_1^2 is 0 or 1 in the first case", ("p.comp",), _l_n1)
    add("l.N10", "formula-check", "no fixed part when N_1^2 = 0", ("l.n1", "ax.rationality"),
        lambda _: _check(*fibration.check_l_N10()), _admits("l.n1", "N_1^2", 0))
    add("l.N1", "formula-check", "fixed-part dichotomy when N_1^2 = 1", ("l.n1", "ax.rationality"),
        lambda _: _check(*fibration.check_l_N1()), _admits("l.n1", "N_1^2", 1))
    fibre = ("e.fibre", "ax.euler-fibration")
    traps_b0, traps_cycle = _traps(*_EXC_B0), _traps(fibration.EXC_SQ, fibration.CYCLE_SQ)
    shape, traps_i = "(Delta^2, Delta.T, T^2)", _traps(*_EXC_B0, *_GAMMA_SQS)
    add("p.no0", "elimination", "first case with N_1^2 = 0", ("l.N10", *fibre),
        lambda _: _from_elimination(fibration.elim_p_no0(), sides=("26", "20")),
        _admits("l.N10", shape, (0, 0, 0)), traps_cycle)
    add("p.noZ", "elimination", "fixed part with a reducible cycle", ("l.N1", *fibre),
        lambda _: _from_elimination(fibration.elim_p_noZ()),
        _admits("l.N1", shape, (0, 1, -1)), traps_i)
    add("p.noN", "elimination", "fixed part with N = N_1 + Delta", ("l.N1", *fibre),
        lambda _: _from_elimination(fibration.elim_p_noN()),
        _admits("l.N1", shape, (0, 1, -1)), traps_i)
    add("p.noN1", "elimination", "N_1^2 = 1 survives only n = 6", ("l.N1", *fibre),
        lambda _: _from_elimination(fibration.elim_p_noN1(), expect="survives"),
        _admits("l.N1", shape, (1, 0, 0)), traps_i)
    add("p.no16", "elimination", "n = 6 dies", ("p.noN1", "e.fibre", "ax.minus3"),
        lambda _: _from_elimination(fibration.elim_p_no16(), sides=("24", "22")),
        _reads(lambda ins: sorted({n for _, _, n in ins["p.noN1"].value}), [6],
               "cycle counts left by p.noN1: {}"), traps_cycle)
    add("t.i", "elimination", "the first main case cannot occur",
        ("p.no0", "p.noZ", "p.noN", "p.no16"), _all_closed, closes=("i",))
    add("t.ii", "elimination", "the second main case cannot occur",
        ("cases.main", "ax.miyaoka-bican", "ax.cp-m2", *fibre),
        lambda ins: _from_elimination(
            fibration.elim_t_ii(next(c.h2 for c in ins["cases.main"].value if c.id == "ii")),
            sides=("12+6l", "15+3l")), traps_b0, closes=("ii",))

    # the pencil case: the Euler pass, then the lattice eliminations
    add("p.0", "elimination", "Euler pass over the A'^2 = 0 list", euler,
        _euler_pass("p.list0", {"0a": ("12+9l", "14+3l"), "0b": ("9+9l", "14+3l"),
                                "0c": ("9+9l", "14+3l")}),
        traps_b0, closes=("0b", "0e", "0h"))  # the labels left with no value of l
    add("p.1", "elimination", "Euler pass over the A'^2 = 1 list", euler,
        _p_1, traps_b0, closes=("1b", "1c"))
    add("p.3", "elimination", "Euler pass for A' = N", euler, _euler_pass("r.N"), traps_b0)
    add("t.iii", "enumeration", "survivors of the Euler pass",
        ("p.0", "p.1", "p.3", "p.list2"), _t_iii,
        _reads(lambda ins: ins["p.list2"].value, [], "A'^2 = 2 has no shapes"))
    add("t.no4", "elimination", "n = 3l - 4 cannot occur",
        ("t.iii", "ax.elliptic-degree", "ax.rationality"), _t_no4, _t_no4_cases)
    add("p.1e", "elimination", "case (1e) cannot occur", ("t.iii", "t.no4", "l.n"),
        _p_1e, _t_no4_closes, closes=("1e",))
    add("p.no0d", "elimination", "case (0d) cannot occur",
        ("t.iii", "ax.ccm2-contraction"), _p_no0d, closes=("0d",))
    add("p.l0", "elimination", "cases (0a), (0c), (0f) cannot occur", ("t.iii",), _p_l0,
        _reads(lambda ins: sorted({ell for lab in _L0 for ell in _survivals(ins, lab)}), [0],
               "they survive at l in {}"), closes=_L0)
    add("t.iii2", "enumeration", "final survivor list of the pencil case",
        ("t.iii", "p.1e", "p.no0d", "p.l0"), _t_iii2)

    # the ruled branches
    reduced = _reads(lambda ins: ins["p.no2"].status, CONTRADICTION, "p.no2 reduces a = 2 to a = 1")
    add("l.a2", "formula-check", "the ruled model has 0 <= a <= 2", ("s.3l",),
        lambda ins: _from_elimination(ruled.elim_l_a2(_steps(ins, "s.3l", 1)),
                                      expect="survives"))
    add("p.no2", "elimination", "a = 2 needs three singular fibres",
        ("l.a2", "ax.a1-reduction"),
        lambda ins: _from_elimination(ruled.elim_p_no2(ins["l.a2"].value), sides=("13", "12")))
    add("t.no0", "elimination", "deepest ruled branch with l = 0",
        ("p.no2", "s.3l", "ax.proximity"),
        lambda ins: _from_elimination(ruled.elim_t_no0(_steps(ins, "s.3l", 0))),
        reduced, closes=((0, 0, "ruled"),))
    add("t.no1rul", "elimination", "deepest ruled branch with l = 1", ("s.3l", "e.fibre"),
        lambda _: _from_elimination(fibration.elim_t_no1rul(), sides=("15", "13")),
        _reads(lambda ins: ins["s.3l"].value[1].ok, True, "the deepest ladder holds at l = 1"),
        traps_b0, closes=((1, 0, "ruled"),))
    add("t.no1", "elimination", "middle ruled branch with l = 1",
        ("s.3l-1", "p.no2", "e.fibre", "ax.companion-no1"),
        lambda ins: _from_elimination(ruled.elim_t_no1(_steps(ins, "s.3l-1", 1))),
        reduced, _traps(*_EXC_B0, fibration.CYCLE_SQ), closes=((1, -1, "ruled"),))

    # the eight-point branches
    add("e.sys", "enumeration", "the seven-solution multiplicity system", (), _e_sys)
    add("p.equiv0", "enumeration", "the seven solutions form one orbit",
        ("e.sys", "ax.proximity"), _p_equiv0)
    add("b0.tables", "formula-check", "index filter on the cycle distributions",
        ("s.3l", "s.3l-1"), _b0_tables)
    add("l.noa", "elimination", "deepest branch, pencil-pinned option", ("b0.tables",),
        lambda ins: _from_elimination(delpezzo.elim_forced_split(
            "l.noa", ins["b0.tables"].value["deepest"][0])),
        _options_left("deepest", "pinned-to-pencil"))
    add("p.no3lirr", "elimination", "deepest branch, irreducible cycles",
        ("b0.tables", "e.sys", "p.equiv0"),
        lambda ins: _from_elimination(delpezzo.elim_p_no3lirr(
            {(2, 2, 8): ins["e.sys"].value}, ins["p.equiv0"].value,
            ins["b0.tables"].value["deepest"][0])),
        _options_left("deepest", "open"))
    add("p.3lred", "elimination", "deepest branch, reducible cycle", ("b0.tables", "ax.minus3"),
        lambda _: _from_elimination(delpezzo.elim_p_3lred()), _options_left("deepest", "open"))
    add("t.no3lDP1", "elimination", "deepest eight-point branch with l = 1",
        ("l.noa", "p.no3lirr", "p.3lred"), _all_closed, closes=((1, 0, "eight-point"),))
    add("l.nob", "elimination", "middle branch, pencil-pinned option", ("b0.tables",),
        lambda ins: _from_elimination(delpezzo.elim_forced_split(
            "l.nob", ins["b0.tables"].value["middle"][0])),
        _options_left("middle", "pinned-to-pencil"))
    add("sixtuples", "enumeration", "admissible degree six-tuples", ("b0.tables",), _sixtuples,
        _options_left("middle", "open"))
    add("e.f2", "enumeration", "plane models of the two exceptional curves", (), _e_f2)
    add("tables.printed", "enumeration", "the printed multiplicity tables",
        ("sixtuples", "e.f2", "ax.proximity"), _tables_printed)
    audit = ("tables.printed", "ax.split")
    add("p.3l-1", "elimination", "two-lines configuration", audit,
        _audit(delpezzo.elim_p_3l1, "lines-lines"))
    add("p.3l-12", "elimination", "conic configuration", (*audit, "ax.proximity"),
        _audit(delpezzo.elim_p_3l12, "contracted-conic"))
    add("p.3l-13", "elimination", "doubly-contracted configuration", (*audit, "ax.proximity"),
        _audit(delpezzo.elim_p_3l13, "contracted-contracted"))
    add("t.3l-1", "elimination", "middle eight-point branch with l = 1",
        ("p.3l-1", "p.3l-12", "p.3l-13", "l.nob"), _all_closed,
        closes=((1, -1, "eight-point"),))
    add("t.no3lDP", "elimination", "remaining eight/thirteen point branches",
        ("s.3l", "s.3l-1", "s.3l-2", "ax.companion-no3ldp"),
        lambda ins: _from_elimination(ruled.elim_t_no3ldp(
            {b: ins[b].value for b in ("s.3l", "s.3l-1", "s.3l-2")})),
        closes=((0, 0, "eight-point"), (1, -3), (1, -2)))

    add("coverage", "formula-check", "every branch of the case tree is closed",
        ("t.iii2", "l.n", "t.no0", "t.no1rul", "t.no1", "t.3l-1", "t.no3lDP1", "t.no3lDP"),
        _coverage, closes=("iii", *final_labels))
    add("t.final", "elimination", "no automorphism of order three",
        ("t.i", "t.ii", "coverage"), _t_final)

    return _registry(nodes)


def _registry(nodes: list[ProofNode]) -> dict[str, ProofNode]:
    """``nodes`` by id in declaration order, the order a run evaluates them in; a node
    declared before a dependency, or with an unknown one, raises ``ValueError``."""
    registry: dict[str, ProofNode] = {}
    for node in nodes:
        for dep in node.deps:
            if dep not in registry:
                raise ValueError(f"{node.id} depends on {dep}, which is not declared before it")
        registry[node.id] = node
    return registry

"""The full proof tree: every check as a node of one data-flow graph.

A node is ``(id, kind, deps, closes, fn)``.  ``fn`` receives the outcomes of
its dependencies and returns one :class:`Outcome`; ``closes`` names the case
ids, pencil labels and ``(l, n - 3l)`` branches the node closes.  A label that
the Euler pass and the lattice eliminations leave alive is closed only by
``coverage``, once every one of its branches is.  Nodes are formula checks,
enumerations matched against fixtures, eliminations expected to end in a
contradiction, or explicitly assumed axioms.  The root holds only when the
three main cases are closed, the third one branch by branch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable

from . import adjoint, cover, delpezzo, fibration, pencil, plane, ruled

SCHEMA_VERSION = "1"

VERIFIED = "verified"
CONTRADICTION = "contradiction-as-expected"
AXIOM = "axiom-assumed"
FAILED = "failed"


@dataclass
class Outcome:
    """What a node established.

    ``value`` is what its consumers read, ``sides`` the two printed sides of
    an elimination, and ``closes`` what the node closes once it holds.
    """

    status: str
    value: object = None
    sides: tuple[str, str] | None = None
    trace: list[str] = field(default_factory=list)
    closes: tuple = ()


@dataclass(frozen=True)
class ProofNode:
    id: str
    kind: str  # formula-check | enumeration | elimination | axiom
    title: str
    deps: tuple[str, ...]
    closes: tuple
    fn: Callable[[dict[str, Outcome]], Outcome]

    def run(self, ins: dict[str, Outcome]) -> Outcome:
        out = self.fn(ins)
        if out.status != FAILED:
            out.closes = self.closes
        return out


def _expected() -> dict:
    with resources.files("godeaux3.fixtures").joinpath("expected.json").open() as fh:
        return json.load(fh)


EXPECTED = _expected()

_AXIOM_STATEMENTS = {
    "ax.miyaoka-trican": ("the moving part of a positive-dimensional subsystem of the "
                          "tricanonical system meets the canonical class at least twice",
                          "tricanonical systems of numerical Godeaux surfaces"),
    "ax.miyaoka-bican": ("the bicanonical moving part M has M^2 in {0, 2} with smooth "
                         "general member", "bicanonical systems of numerical Godeaux surfaces"),
    "ax.cp-m2": ("M^2 = 0 cannot occur for the bicanonical moving part",
                 "[CP, theorem 5.1]"),
    "ax.trican-birational": ("the tricanonical map is birational, so the invariant part "
                             "of the tricanonical system has h^0 at most 3",
                             "tricanonical birationality"),
    "ax.kv-vanishing": ("the higher cohomology of N and of 2K_Y+B vanishes, so both h^0 "
                        "values equal the stated Euler characteristics",
                        "Kawamata-Viehweg vanishing"),
    "ax.split": ("the pushforward of the cover structure sheaf splits into three "
                 "eigensheaves O + O(-L_1) + O(-L_2) with 3 L_1 = B_1 + 2 B_2",
                 "theory of abelian triple covers"),
    "ax.ccm2-contraction": ("every irreducible curve Z with Z.(N + K_Y) < 0 is a "
                            "(-1)-curve with Z.N = 0, and contracting such cycles makes "
                            "the adjoint nef", "[CCM2, lemma 2.2]"),
    "ax.drop-shapes": ("the exceptional content of the invariant pencil at a blown-up "
                       "fixed point takes exactly the catalogued shapes",
                       "local blow-up computation at the fixed points"),
    "ax.lesub-irred": ("the general member of the invariant moving part is reduced "
                       "and irreducible", "index-theorem argument on the components"),
    "ax.minus3": ("an irreducible (-1)-cycle orthogonal to N and to the exceptional "
                  "pairs has C.B_0 = C.E' = 1",
                  "covering-genus count for the image of the cycle"),
    "ax.rationality": ("the quotient surface is rational in every surviving case",
                       "Castelnuovo rationality criterion"),
    "ax.keffective": ("the canonical class of the rational quotient is not effective, "
                      "and a numerically trivial effective class is zero",
                      "rationality of the quotient"),
    "ax.elliptic-degree": ("a degree-1 divisor on a smooth elliptic curve has h^0 = 1",
                           "Riemann-Roch on curves"),
    "ax.fibre-nodes": ("a connected singular fibre degenerates to at least the displayed "
                       "number of nodal curves", "degeneration of singular fibres"),
    "ax.euler-fibration": ("e(Y) + (base points) = e(F) e(P^1) + sum of the fibre Euler "
                           "excesses for a pencil-induced fibration",
                           "Euler-number count for fibrations"),
    "ax.a1-reduction": ("the ruled model over F_0 or F_2 reduces to F_1 by elementary "
                        "transformations unless a = 2 with at most two singular fibres",
                        "elementary transformations of ruled surfaces"),
    "ax.orbit-structure": ("the intersection cycle of the moving and fixed parts is "
                           "invariant; its fixed points lie on the ramification curve "
                           "or among the blown-up fixed points",
                           "orbit decomposition of invariant cycles"),
    "ax.proximity": ("multiplicities of an irreducible plane curve satisfy the proximity "
                     "inequalities over any cluster of infinitely near points",
                     "infinitely near points"),
    "ax.companion-no1": ("the two surviving genus-two plane-model subcases of the middle "
                      "ruled branch admit no configuration",
                      "companion computation, not mechanized here"),
    "ax.companion-no3ldp": ("the three remaining branches over eight or thirteen points "
                         "admit no configuration",
                         "companion computation, not mechanized here"),
}


def _axiom(ax_id: str):
    statement, citation = _AXIOM_STATEMENTS[ax_id]
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


def _elim(fn, expect: str = "contradiction", sides: tuple[str, str] | None = None):
    return lambda _: _from_elimination(fn(), expect, sides)


def _all_closed(ins: dict[str, Outcome]) -> Outcome:
    """A composite elimination holds when every sub-elimination it reads does."""
    trace = [f"{d}: {o.status}" for d, o in ins.items()]
    return _check(all(o.status == CONTRADICTION for o in ins.values()), trace,
                  status=CONTRADICTION)


# -- the cover and the main cases -------------------------------------------------


def _e_fixed(_) -> Outcome:
    trace = []
    ok = True
    samples = [
        (cover.RamificationData(0, 0, 1), 6),
        (cover.RamificationData(0, 1, 1), 7),
        (cover.RamificationData(1, 0, 3, gamma_sq=-3), 9),
        (cover.RamificationData(0, 2, 4), 8),
    ]
    for r, expected in samples:
        got = cover.fixed_point_budget(r)
        ok &= got == expected and got == r.h1 + 2 * r.h2
        trace.append(f"r0k={r.r0k} l={r.ell} h2={r.h2}: h1+2h2 = {got}")
    iii = cover.RamificationData(0, 3, 1)
    ok &= iii.h1 == 4 + 3
    trace.append(f"pencil case: h1 = 4 + l (l=3 gives {iii.h1})")
    return _check(ok, trace)


def _e_ky(_) -> Outcome:
    """K_Y^2 on every case grid; the value maps each ramification datum to it."""
    g = cover.GodeauxContext()
    values = {}
    trace = []
    ok = True
    for ell in range(0, 4):
        r = cover.RamificationData(0, ell, 1)
        ky2 = values[r] = cover.quotient_k2(g, r)
        ok &= ky2 == -2 - 3 * ell
        trace.append(f"pencil case l={ell}: K_Y^2 = {ky2}")
    for ell in range(2, 5):
        r = cover.RamificationData(0, ell, 4)
        ky2 = values[r] = cover.quotient_k2(g, r)
        ok &= ky2 == -3 - 3 * ell
        trace.append(f"second case l={ell}: K_Y^2 = {ky2}, e(Y) = {12 - ky2}")
    for gamma_sq, ell in fibration.case_i_grid():
        r = cover.RamificationData(1, ell, 3, gamma_sq=gamma_sq)
        ky2 = values[r] = cover.quotient_k2(g, r)
        expected = -4 - 3 * ell + (3 * gamma_sq - 1) // 2
        ok &= ky2 == expected
    trace.append("first case: K_Y^2 = -4 - 3l + (3 Gamma^2 - 1)/2 over the whole grid")
    return _check(ok, trace, values)


def _e_kx(ins) -> Outcome:
    g = cover.GodeauxContext()
    ok = True
    for r, ky2 in ins["e.ky"].value.items():
        via_hurwitz = cover.kx2(r, ky2)
        ok &= via_hurwitz == cover.kx2_via_blowup(g, r)
        if r.r0k == 1:
            ok &= ky2 >= via_hurwitz  # e(X) >= e(Y)
    trace = ["K_X^2 = 3 K_Y^2 - 4 R_0^2 + 4 R_0.K = K_S^2 - (h_1 + 3 h_2) on the K_Y^2 grid"]
    trace.append("case with R_0.K = 1 also satisfies K_Y^2 >= K_X^2")
    return _check(ok, trace)


def _p_rk(_) -> Outcome:
    trace = []
    ok = True
    for (r0k, h2), (h0n, h0b) in (((1, 3), (3, 1)), ((0, 4), (2, 2)), ((0, 1), (2, 0))):
        got = cover.h0_pair(r0k, h2)
        ok &= got == (h0n, h0b)
        trace.append(f"(R_0.K, h_2) = ({r0k}, {h2}): h^0 pair {got}")
    for bad in ((0, 7), (1, 6), (1, 0)):
        try:
            cover.h0_pair(*bad)
            ok = False
        except cover.CaseInvalidError:
            trace.append(f"{bad} rejected")
    return _check(ok, trace)


def _cases_main(_) -> Outcome:
    cases = cover.enumerate_main_cases()
    got = [[c.r0k, c.h2] for c in cases]
    ok = got == EXPECTED["main_cases"] and [c.id for c in cases] == ["i", "ii", "iii"]
    ok &= cover.h2_bound_is_monotone()
    trace = [f"cases: {[(c.id, c.r0k, c.h2) for c in cases]}",
             "search bound h_2 <= 20 is stable (monotone beyond the bound)"]
    return _check(ok, trace)


def _p_h0li1(_) -> Outcome:
    split = cover.eigenvalue_split(1)
    ok = (split.h11, split.h12) == (2, 3) and split.rejected == (5,) \
        and split.congruence_class == 2
    trace = [f"h11 = {split.h11}, h12 = {split.h12}; congruence class "
             f"{split.congruence_class} mod 3; rejected {list(split.rejected)}"]
    return _check(ok, trace)


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
        bounds = ins["r.R0"].value
        in_range = all(0 <= c.ar0 <= bounds[c.a2] for c in cases)
        trace.append("every case has 0 <= A.R_0 <= A.Phi")
        loose = pencil.enumerate_pencil_cases(aprime2, apply_orbit_filters=False)
        superset = {(c.a2, c.ar0, c.g, c.d) for c in loose} >= {
            (c.a2, c.ar0, c.g, c.d) for c in cases}
        trace.append(f"without the orbit filters the list grows to {len(loose)} candidates")
        return _check(got == expect and in_range and superset, trace, cases)

    return fn


def _e_g(ins) -> Outcome:
    ok = True
    trace = []
    for dep in ("p.list0", "p.list1", "r.N"):
        for c in ins[dep].value:
            d = dict(c.d)
            dg = 0
            if "G" in d:
                fgh = {k: d.get(k, 0) for k in ("F", "G", "H")}
                dg = fgh["F"] - 3 * fgh["G"] + fgh["H"]
            de = -sum(m for comp, m in c.d if comp.startswith("E"))
            ak = 2 if c.a2 in (0, 2, 4) else 3
            g = pencil.genus_from_case(ak, c.ar0, dg, de, c.aprime2)
            ok &= g == Fraction(c.g)
            ok &= c.apk == 2 * c.g - 2 - c.aprime2
    trace.append("genus identity and A'.K_Y = 2g - 2 - A'^2 hold on every emitted case")
    return _check(ok, trace)


# -- the adjoint ladder -----------------------------------------------------------


def _le_z(_) -> Outcome:
    ok = True
    trace = []
    b = adjoint.z_lower_bound(0, -2, 1)
    ok &= b == Fraction(-1)
    trace.append(f"pencil case l=1: bound {b} (vacuous against n >= 0)")
    for ell in range(0, 4):
        lo, hi = adjoint.n_range(ell)
        bound = adjoint.z_lower_bound(0, -2 * ell, 1)
        ok &= Fraction(max(0, 3 * ell - 4)) == Fraction(lo) and hi == 3 * ell
        ok &= bound <= lo
        trace.append(f"l={ell}: n in [{lo}, {hi}], lower bound {bound}")
    b_i = adjoint.z_lower_bound(1, -3, 3)
    ok &= b_i == Fraction(5)
    trace.append(f"first case (Gamma^2=-3, l=0): bound {b_i}")
    return _check(ok, trace)


def _l_n(_) -> Outcome:
    """h^0(N|_N1) >= 2 on each range of n; the value maps l to that range."""
    ok = True
    trace = []
    ranges = {ell: adjoint.n_range(ell) for ell in range(0, 4)}
    for ell, (lo, hi) in ranges.items():
        for n in range(lo, hi + 1):
            ok &= adjoint.restriction_dim(ell, n) >= 2
        ok &= adjoint.restriction_dim(ell, hi) == 2
        trace.append(f"l={ell}: h^0(N|_N1) = 2+3l-n stays >= 2 on [{lo},{hi}]")
    ok &= ranges[0] == (0, 0)
    trace.append("l=0 forces n=0")
    return _check(ok, trace, ranges)


def _p_comp(ins) -> Outcome:
    ok = True
    for r, ky2 in ins["e.ky"].value.items():
        if r.h2 == 4:
            continue  # the second main case has no adjoint ladder
        for n in range(0, 10):
            for np_ in range(0, 6):
                rows = adjoint.adjoint_table(r.r0k, ky2, r.h2, adjoint.CycleCounts(n, np_, 1))
                ok &= all(row.consistent() for row in rows)
    trace = ["p_a = 1 + (N_i^2 + N_i.K)/2 for every row over the whole parameter grid"]
    rows = adjoint.adjoint_table(0, -5, 1, adjoint.CycleCounts(3))
    ok &= rows[0].ni2 == 4 and rows[1].prev_dot == 4
    rows = adjoint.adjoint_table(0, -5, 1, adjoint.CycleCounts(2))
    ok &= rows[0].ni2 == 3 and rows[1].prev_dot == 2
    trace.append("spot values: l=1, n=3 gives N_1^2 = 4 = N_1.N_2; n=2 gives 3 and 2")
    return _check(ok, trace)


def _ladder(branch: str, expected_forced: dict):
    def fn(_) -> Outcome:
        reports = [adjoint.verify_ladder_identity(branch, ell) for ell in (1,)]
        if branch == "s.3l":
            reports.append(adjoint.verify_ladder_identity(branch, 0))
        ok = all(r.ok for r in reports)
        trace = []
        for r in reports:
            trace += [f"{branch}: ok={r.ok}, forced counts {r.forced}"] + r.failures
            ok &= all(r.forced.get(k) == v for k, v in expected_forced.items())
        if branch == "s.3l":
            ok &= adjoint.n_prime_one_is_contradiction()
            trace.append("n' = 1 would force N_1 = N_2, i.e. an effective canonical class")
        return _check(ok, trace)

    return fn


def _cycle_shapes(_) -> Outcome:
    ok1, why1 = adjoint.cycle_structure_check(
        [adjoint.Cycle((("Z1", 1),)), adjoint.Cycle((("Z2", 1),)),
         adjoint.Cycle((("Z1", 1), ("Z2", 1), ("E1", 1)))],
        {("Z1", "B0"): 1, ("Z1", "E"): 1, ("Z2", "B0"): 1, ("Z2", "E"): 1})
    ok2, why2 = adjoint.cycle_structure_check([adjoint.Cycle((("G1", 1),))])
    ok3, why3 = adjoint.cycle_structure_check(
        [adjoint.Cycle((("Z1", 1), ("E1", 1), ("E2", 1)))])
    ok = ok1 and not ok2 and not ok3
    trace = ["the catalogued reducible shape is accepted",
             f"a cycle containing an exceptional pair component is rejected: {why2}",
             f"a cycle with two E-components is rejected: {why3}"]
    return _check(ok, trace)


# -- Euler-number eliminations ------------------------------------------------------


def _e_fibre(_) -> Outcome:
    ok = True
    trace = []
    # a (-n)-curve closed by a transverse component contributes at least n
    for n in range(1, 7):
        bound = fibration.node_bound([(1, 0, {1: n}), (1, 0, {})])
        ok &= bound >= n == fibration.min_contribution(-n)
        trace.append(f"(-{n})-curve: node bound {bound} >= contribution {n}")
    ok &= fibration.node_bound([(1, 0, {1: 1}), (1, 0, {})]) == 1
    ok &= fibration.node_bound([]) == 0
    trace.append("two (-1)-curves meeting once give 1; a smooth fibre gives 0")
    return _check(ok, trace)


def _l_dichotomy(fn):
    def run(_) -> Outcome:
        ok, trace = fn()
        return _check(ok, trace)

    return run


def _p_no16(ins) -> Outcome:
    """n = 6 dies; it must be the only cycle count p.noN1 leaves."""
    out = _from_elimination(fibration.elim_p_no16(), sides=("24", "22"))
    left = sorted({n for _, _, n in ins["p.noN1"].value})
    out.trace.append(f"cycle counts left by p.noN1: {left}")
    if left != [6]:
        out.status = FAILED
    return out


def _euler_pass(list_node: str, printed: dict | None = None):
    """The Euler test over every case of one pencil list, each case keeping the
    values of l the survivor fixture lists it under; the value maps labels to
    their eliminations."""
    def fn(ins) -> Outcome:
        results = {c.label: fibration.eliminate_by_delta(c) for c in ins[list_node].value}
        table = EXPECTED["survivors_after_euler"]
        ok = all(e.survivors == tuple(int(ell) for ell, labs in table.items() if lab in labs)
                 for lab, e in results.items())
        trace = []
        for lab, e in sorted(results.items()):
            trace.append(f"({lab}): {e.lhs} vs {e.rhs} -> surviving l {list(e.survivors)}")
            if printed and lab in printed:
                ok &= (e.lhs, e.rhs) == printed[lab]
        return _check(ok, trace, results)

    return fn


def _p_1(ins) -> Outcome:
    """The A'^2 = 1 pass; in (1e) every component of B_0 meets the moving part."""
    out = _euler_pass("p.list1")(ins)
    case_1e = next(c for c in ins["p.list1"].value if c.label == "1e")
    for ell in (1, 2, 3):
        dists = fibration.p1e_meeting_distributions(case_1e, ell)
        if not dists or any(min(d) < 1 for d in dists):
            out.status = FAILED
        out.trace.append(f"(1e) with l={ell}: admissible B_0 distributions {dists}")
    return out


def _t_iii(ins) -> Outcome:
    passes = {**ins["p.0"].value, **ins["p.1"].value, **ins["p.3"].value}
    got = fibration.t_iii_survivors(passes)
    want = {int(k): tuple(v) for k, v in EXPECTED["survivors_after_euler"].items()}
    trace = [f"l={ell}: {list(labs)}" for ell, labs in sorted(got.items())]
    empty = not ins["p.list2"].value
    trace.append("A'^2 = 2 has no shapes" if empty else "A'^2 = 2 has shapes no pass reads")
    return _check(got == want and empty, trace, got)


def _p_l0(_) -> Outcome:
    table = fibration.elim_p_l0()
    trace = [f"{k}: {e.lhs} vs {e.rhs} -> {e.verdict}" for k, e in sorted(table.items())]
    return _check(all(e.verdict == "contradiction" for e in table.values()), trace,
                  status=CONTRADICTION)


def _t_iii2(ins) -> Outcome:
    closed = {lab for d, o in ins.items() if d != "t.iii" for lab in o.closes}
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
    trace.append("cases with l >= 2 carry the eliminated label (1e); "
                 "n = 3l - 4 needs l >= 2 and dies with it")
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
    chains = plane.cremona_orbit_connect(ins["e.sys"].value)
    longest = max(len(p) for p in chains.values())
    trace = [f"all {len(chains)} solutions reachable; longest chain {longest} moves"]
    for state in sorted(chains):
        path = chains[state]
        trace.append(f"d0={state[0]}: {len(path)} moves")
    return _check(len(chains) == 7 and longest <= 6, trace)


def _degree_budgets(_) -> Outcome:
    ok = plane.degree_budget(7) == 21 and plane.degree_budget(6) == 18
    return _check(ok, ["2 d_0 + sum d_i = 21 (deepest branch) and 18 (middle branch)"])


def _b0_tables(_) -> Outcome:
    deep = delpezzo.b0_options_deepest()["options"]
    mid = delpezzo.b0_options_middle()["options"]
    ok = [o["verdict"] for o in deep] == ["excluded", "open", "pinned-to-pencil"]
    mid_verdicts = {(o["B0.Z'1"], o["B0.Z'2"], o["B0.Z''"]): o["verdict"] for o in mid}
    ok &= mid_verdicts[(3, 0, 0)] == "excluded"
    ok &= mid_verdicts[(1, 0, 4)] == "excluded"
    ok &= mid_verdicts[(0, 0, 6)] == "excluded"
    ok &= mid_verdicts[(2, 1, 0)] == "pinned-to-pencil"
    ok &= mid_verdicts[(1, 1, 2)] == "open"
    trace = [f"deepest branch options: {deep}", f"middle branch options: {mid}"]
    return _check(ok, trace)


def _sixtuples(_) -> Outcome:
    st = delpezzo.sixtuple_enumerate()
    got = [list(t) for t in st["kept"]]
    trace = [f"kept {st['kept']}", f"excluded {st['excluded']}"]
    return _check(got == EXPECTED["sixtuples"] and len(st["excluded"]) == 2, trace)


def _e_f2(_) -> Outcome:
    sols = delpezzo.exceptional_curve_solutions()
    ok = sols["by_kind"] == {"conic": 3, "line": 6, "contracted": 6}
    ok &= sols["admissible_pairs"] == [("conic", "contracted"),
                                       ("contracted", "contracted"),
                                       ("contracted", "line"), ("line", "line")]
    trace = [f"solutions by kind: {sols['by_kind']}",
             f"admissible pairs: {sols['admissible_pairs']}"]
    return _check(ok, trace)


def _tables_printed(_) -> Outcome:
    ok = True
    trace = []
    for name, table in delpezzo.all_printed_tables():
        passed, violations = plane.verify_config_table(table)
        ok &= passed
        trace.append(f"{name}: {'ok' if passed else violations}")
    for key in ("8-2-0-0-0-0", "8-1-1-0-0-0", "8-1-0-0-1-0"):
        ok &= delpezzo.check_8pt_pairings(key)
    trace.append("genus-one pencil pairings match on the three eight-point tables")
    unsharp = delpezzo.perturbation_sweep(delpezzo.table_14pt("lines-lines"))
    ok &= not unsharp
    trace.append(f"single-entry perturbation sweep on the fourteen-point table: "
                 f"{'all mutations detected' if not unsharp else unsharp}")
    ok &= delpezzo.lines_to_contracted_move()
    trace.append("the quadratic move based at P3, P4, P8 sends the two-lines table "
                 "to the line + contracted one")
    return _check(ok, trace)


# -- the tree -----------------------------------------------------------------------


def build_nodes() -> dict[str, ProofNode]:
    nodes = [ProofNode(ax_id, "axiom", _AXIOM_STATEMENTS[ax_id][0], (), (), _axiom(ax_id))
             for ax_id in EXPECTED["axioms"]]

    def add(node_id, kind, title, deps, fn, closes=()):
        nodes.append(ProofNode(node_id, kind, title, tuple(deps), tuple(closes), fn))

    euler = ("e.g", "e.fibre", "ax.euler-fibration", "l.n")
    final_labels = sorted({lab for labs in EXPECTED["survivors_final"].values() for lab in labs})
    add("e.fixed", "formula-check", "isolated fixed point budget", (), _e_fixed)
    add("e.ky", "formula-check", "two routes to K_Y^2 agree",
        ("e.fixed", "ax.kv-vanishing"), _e_ky)
    add("e.KX", "formula-check", "K_X^2 by Hurwitz and by blow-up count", ("e.ky",), _e_kx)
    add("p.rk", "formula-check", "h^0(N) and h^0(2K_Y+B)",
        ("ax.kv-vanishing", "ax.split", "ax.trican-birational"), _p_rk)
    add("cases.main", "enumeration", "exactly three main cases",
        ("p.rk", "e.fixed"), _cases_main)
    add("p.h0li1", "formula-check", "eigenvalue split of the five exceptional curves",
        ("cases.main", "ax.split"), _p_h0li1)
    add("le.sub", "enumeration", "moving/fixed split of the invariant system",
        ("ax.miyaoka-trican", "ax.lesub-irred"), _le_sub)
    add("r.R0", "formula-check", "upper bound for A.R_0", ("le.sub",), _r_r0)
    for ap in (0, 1, 2):
        add(f"p.list{ap}", "enumeration", f"pencil shapes with A'^2 = {ap}",
            ("le.sub", "r.R0", "ax.drop-shapes", "ax.orbit-structure"), _pencil_list(ap))
    add("r.N", "enumeration", "the single shape with A' = N",
        ("le.sub", "r.R0"), _pencil_list(3))
    add("e.g", "formula-check", "genus identity on every emitted case",
        ("p.list0", "p.list1", "r.N"), _e_g)
    add("le.Z", "formula-check", "lower bound for the cycle count",
        ("e.ky", "ax.ccm2-contraction"), _le_z)
    add("l.n", "formula-check", "3l - 4 <= n <= 3l", ("le.Z",), _l_n)
    add("p.comp", "formula-check", "numerical table of the adjoint ladder",
        ("ax.ccm2-contraction", "e.ky", "e.KX"), _p_comp)
    add("cycles.shapes", "formula-check", "structure of the contracted cycles",
        ("ax.minus3",), _cycle_shapes)
    add("s.3l", "formula-check", "deepest ladder as a lattice identity",
        ("p.comp", "ax.keffective"), _ladder("s.3l", {"n'": 0, "n'''": 1}))
    add("s.3l-1", "formula-check", "middle ladder as a lattice identity",
        ("p.comp",), _ladder("s.3l-1", {"n'": 2, "n''": 1}))
    add("s.3l-2", "formula-check", "shallow ladder as a lattice identity",
        ("p.comp",), _ladder("s.3l-2", {"n'": 5}))
    add("e.fibre", "formula-check", "node bound dominates the fibre contributions",
        ("ax.fibre-nodes",), _e_fibre)

    # the first and second main cases
    add("l.n1", "formula-check", "N_1^2 is 0 or 1 in the first case", ("p.comp",),
        lambda _: _check(fibration.check_l_n1(), ["(3N_1 - 2N)^2 <= 0 pins N_1^2"]))
    add("l.N10", "formula-check", "no fixed part when N_1^2 = 0",
        ("l.n1", "ax.rationality"), _l_dichotomy(fibration.check_l_N10))
    add("l.N1", "formula-check", "fixed-part dichotomy when N_1^2 = 1",
        ("l.n1", "ax.rationality"), _l_dichotomy(fibration.check_l_N1))
    fibre = ("e.fibre", "ax.euler-fibration")
    add("p.no0", "elimination", "first case with N_1^2 = 0", ("l.N10", *fibre),
        _elim(fibration.elim_p_no0, sides=("26", "20")))
    add("p.noZ", "elimination", "fixed part with a reducible cycle", ("l.N1", *fibre),
        _elim(fibration.elim_p_noZ))
    add("p.noN", "elimination", "fixed part with N = N_1 + Delta", ("l.N1", *fibre),
        _elim(fibration.elim_p_noN))
    add("p.noN1", "elimination", "N_1^2 = 1 survives only n = 6", ("l.N1", *fibre),
        _elim(fibration.elim_p_noN1, expect="survives"))
    add("p.no16", "elimination", "n = 6 dies", ("p.noN1", "cycles.shapes"), _p_no16)
    add("t.i", "elimination", "the first main case cannot occur",
        ("p.no0", "p.noZ", "p.noN", "p.no16"), _all_closed, closes=("i",))
    add("t.ii", "elimination", "the second main case cannot occur",
        ("cases.main", "ax.miyaoka-bican", "ax.cp-m2", *fibre),
        _elim(fibration.elim_t_ii, sides=("12+6l", "15+3l")), closes=("ii",))

    # the pencil case: the Euler pass, then the lattice eliminations
    add("p.0", "elimination", "Euler pass over the A'^2 = 0 list", ("p.list0", *euler),
        _euler_pass("p.list0", {"0a": ("12+9l", "14+3l"), "0b": ("9+9l", "14+3l"),
                                "0c": ("9+9l", "14+3l")}),
        closes=("0b", "0e", "0h"))  # the labels left with no value of l
    add("p.1", "elimination", "Euler pass over the A'^2 = 1 list", ("p.list1", *euler),
        _p_1, closes=("1b", "1c"))
    add("p.3", "elimination", "Euler pass for A' = N", ("r.N", *euler),
        _euler_pass("r.N"))
    add("t.iii", "enumeration", "survivors of the Euler pass",
        ("p.0", "p.1", "p.3", "p.list2"), _t_iii)
    add("t.no4", "elimination", "n = 3l - 4 cannot occur",
        ("t.iii", "ax.elliptic-degree", "ax.rationality"), _elim(fibration.elim_t_no4))
    add("p.1e", "elimination", "case (1e) cannot occur", ("t.iii", "t.no4", "l.n"),
        _elim(fibration.elim_p_1e), closes=("1e",))
    add("p.no0d", "elimination", "case (0d) cannot occur",
        ("t.iii", "ax.ccm2-contraction"), _elim(fibration.elim_p_no0d), closes=("0d",))
    add("p.l0", "elimination", "cases (0a), (0c), (0f) cannot occur", ("t.iii",), _p_l0,
        closes=("0a", "0c", "0f"))
    add("t.iii2", "enumeration", "final survivor list of the pencil case",
        ("t.iii", "p.1e", "p.no0d", "p.l0"), _t_iii2)

    # the ruled branches
    add("l.a2", "formula-check", "the ruled model has 0 <= a <= 2", ("s.3l",),
        lambda _: _from_elimination(ruled.elim_l_a2(), expect="survives"))
    add("p.no2", "elimination", "a = 2 needs three singular fibres",
        ("l.a2", "ax.a1-reduction"), _elim(ruled.elim_p_no2, sides=("13", "12")))
    add("t.no0", "elimination", "deepest ruled branch with l = 0",
        ("t.iii2", "p.no2", "s.3l", "ax.proximity"), _elim(ruled.elim_t_no0),
        closes=((0, 0, "ruled"),))
    add("t.no1rul", "elimination", "deepest ruled branch with l = 1",
        ("t.iii2", "s.3l", "e.fibre"), _elim(fibration.elim_t_no1rul, sides=("15", "13")),
        closes=((1, 0, "ruled"),))
    add("t.no1", "elimination", "middle ruled branch with l = 1",
        ("t.iii2", "s.3l-1", "p.no2", "ax.companion-no1"), _elim(ruled.elim_t_no1),
        closes=((1, -1, "ruled"),))

    # the eight-point branches
    add("e.sys", "enumeration", "the seven-solution multiplicity system", (), _e_sys)
    add("p.equiv0", "enumeration", "the seven solutions form one orbit",
        ("e.sys", "ax.proximity"), _p_equiv0)
    add("e.deg1", "formula-check", "the two degree budgets", (), _degree_budgets)
    add("b0.tables", "formula-check", "index filter on the cycle distributions",
        ("s.3l", "s.3l-1"), _b0_tables)
    add("l.noa", "elimination", "deepest branch, pencil-pinned option",
        ("b0.tables",), _elim(delpezzo.elim_l_noa))
    add("p.no3lirr", "elimination", "deepest branch, irreducible cycles",
        ("b0.tables", "e.sys", "p.equiv0", "e.deg1"), _elim(delpezzo.elim_p_no3lirr))
    add("p.3lred", "elimination", "deepest branch, reducible cycle",
        ("b0.tables", "cycles.shapes"), _elim(delpezzo.elim_p_3lred))
    add("t.no3lDP1", "elimination", "deepest eight-point branch with l = 1",
        ("l.noa", "p.no3lirr", "p.3lred"), _all_closed, closes=((1, 0, "eight-point"),))
    add("l.nob", "elimination", "middle branch, pencil-pinned option",
        ("b0.tables",), _elim(delpezzo.elim_l_nob))
    add("sixtuples", "enumeration", "admissible degree six-tuples",
        ("b0.tables", "p.equiv0", "e.deg1"), _sixtuples)
    add("e.f2", "enumeration", "plane models of the two exceptional curves",
        ("sixtuples",), _e_f2)
    add("tables.printed", "enumeration", "the printed multiplicity tables",
        ("sixtuples", "e.f2", "ax.proximity"), _tables_printed)
    audit = ("tables.printed", "p.h0li1", "ax.split")
    add("p.3l-1", "elimination", "two-lines configuration", audit,
        _elim(delpezzo.elim_p_3l1))
    add("p.3l-12", "elimination", "conic configuration", (*audit, "ax.proximity"),
        _elim(delpezzo.elim_p_3l12))
    add("p.3l-13", "elimination", "doubly-contracted configuration",
        (*audit, "ax.proximity"), _elim(delpezzo.elim_p_3l13))
    add("t.3l-1", "elimination", "middle eight-point branch with l = 1",
        ("p.3l-1", "p.3l-12", "p.3l-13", "l.nob"), _all_closed,
        closes=((1, -1, "eight-point"),))
    add("t.no3lDP", "elimination", "remaining eight/thirteen point branches",
        ("s.3l", "s.3l-1", "s.3l-2", "ax.companion-no3ldp"), _elim(ruled.elim_t_no3ldp),
        closes=((0, 0, "eight-point"), (1, -3), (1, -2)))

    add("coverage", "formula-check", "every branch of the case tree is closed",
        ("t.iii2", "l.n", "t.no0", "t.no1rul", "t.no1", "t.3l-1", "t.no3lDP1", "t.no3lDP"),
        _coverage, closes=("iii", *final_labels))
    add("t.final", "elimination", "no automorphism of order three",
        ("t.i", "t.ii", "coverage"), _t_final)

    registry = {n.id: n for n in nodes}
    topological_order(registry)  # rejects cycles and unknown dependencies
    return registry


def topological_order(registry: dict[str, ProofNode]) -> list[str]:
    """Dependencies first, ties broken by id; raises on a cycle or an unknown id."""
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(nid: str) -> None:
        if state.get(nid) == 1:
            raise ValueError(f"dependency cycle at {nid}")
        if nid in state:
            return
        state[nid] = 1
        for dep in sorted(registry[nid].deps):
            if dep not in registry:
                raise ValueError(f"{nid} depends on unknown node {dep}")
            visit(dep)
        state[nid] = 2
        order.append(nid)

    for nid in sorted(registry):
        visit(nid)
    return order

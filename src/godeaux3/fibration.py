"""Euler-number bookkeeping for the pencil fibrations and the case eliminations.

Every elimination regenerates both sides of its decisive inequality from the
raw case parameters (counts of trapped negative curves vs the Euler excess
delta of the singular fibres) and records the verdict with a derivation
trace.  Each Euler count compares ``trapped``, a sum of ``min_contribution``
over named curves, with ``euler_excess`` of K_Y^2 read from ``cover``.
Rational intermediates are exact; comparisons happen on integers.
"""

from __future__ import annotations

from typing import NamedTuple

from .adjoint import adjoint_pairing, adjoint_step, ladder_counts, ladder_top
from .cover import RamificationData, image_square, quotient_k2
from .lattice import canonical_degree, index_slack
from .pencil import EXC_SELF_INT, PencilCase, pencil_case


class FibrationError(Exception):
    pass


class LinearForm(NamedTuple):
    """Integer-affine expression c0 + c1 * l in the count l of (-2)-components."""

    const: int
    coef: int = 0

    def __call__(self, value: int) -> int:
        return self.const + self.coef * value

    def __str__(self) -> str:
        if self.coef == 0:
            return str(self.const)
        coef = f"{self.coef}l" if self.coef != 1 else "l"
        if self.const == 0:
            return coef
        return f"{self.const}+{coef}" if self.coef > 0 else f"{self.const}-{-self.coef}l"


def min_contribution(self_int: int) -> int:
    """An irreducible curve of square -n inside a fibre adds at least n to delta."""
    if self_int >= 0:
        raise FibrationError("only negative curves are trapped in fibres")
    return -self_int


def node_bound(fiber: list[tuple[int, int, dict[int, int]]]) -> int:
    """Lower bound for the node count of a connected singular fibre.

    ``fiber`` lists components as (multiplicity, arithmetic genus, pairwise
    intersections with later components).  The bound is
    sum (h_i - 1)(2 pa_i - 2) + sum_{i<j} (h_i + h_j - 1) C_i.C_j.
    """
    n = len(fiber)
    if n == 0:
        return 0
    adj = [[0] * n for _ in range(n)]
    for i, (_, _, inters) in enumerate(fiber):
        for j, v in inters.items():
            adj[i][j] = v
            adj[j][i] = v
    if n > 1:
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for j in range(n):
                if adj[cur][j] > 0 and j not in seen:
                    seen.add(j)
                    frontier.append(j)
        if len(seen) != n:
            raise FibrationError("disconnected fibre")
    total = sum((h - 1) * (2 * pa - 2) for h, pa, _ in fiber)
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i][j]:
                total += (fiber[i][0] + fiber[j][0] - 1) * adj[i][j]
    return total


# Squares of what a fibre can trap: E', F', H' are images of fixed (-1)-curves, a
# component of B_0 of a (-2)-curve of R_0; the contracted cycles are (-1)-curves.
EXC_SQ = image_square(EXC_SELF_INT)
B0_SQ = image_square(RamificationData(0, 1, 1).r0sq)
CYCLE_SQ = -1


def trapped(*curves: tuple[int, int]) -> int:
    """The least contribution to delta of trapped curves, given as (count, square) pairs."""
    return sum(count * min_contribution(sq) for count, sq in curves if count)


def euler_excess(ky2: int, f2: int, fk: int) -> int:
    """delta = e(Y) + 3 F^2 + 2 F.K_Y for a pencil |F|, where e(Y) = 12 - K_Y^2."""
    return 12 - ky2 + 3 * f2 + 2 * fk


def _affine(fn, at: int = 0) -> LinearForm:
    """The LinearForm of a function affine in l, read off at l = at and at + 1."""
    lo, hi = fn(at), fn(at + 1)
    return LinearForm(lo - at * (hi - lo), hi - lo)


class Elimination(NamedTuple):
    prop_id: str
    lhs: str
    rhs: str
    verdict: str  # "contradiction" or "survives"
    trace: tuple[str, ...] = ()
    survivors: tuple = ()
    case: PencilCase | None = None  # the pencil case an Euler pass judges


# -- case (iii): the pencil |A'| ----------------------------------------------


# h_1 and K_Y^2 of the pencil case, R_0.K_S = 0 and h_2 = 1 (one curve G'), in l
_H2 = 1
_PENCIL_H1 = _affine(lambda ell: RamificationData(0, ell, _H2).h1)
_PENCIL_KY2 = _affine(lambda ell: quotient_k2(RamificationData(0, ell, _H2)))


def _pencil_trapped(case: PencilCase) -> tuple[int, int, int]:
    """(A'.F', A'.H', E'-curves met) for |A'|: pi^* A' = A - D and pi^* F' = 3F give
    A'.F' = -D.F = F - G (H' likewise), and D meets one E'-curve per E-component."""
    d = dict(case.d)
    g = d.get("G", 0)
    return d.get("F", 0) - g, d.get("H", 0) - g, sum(1 for c in d if c.startswith("E"))


def _pencil_sum(inv: tuple[int, int, int], ell: int, b0: int) -> int:
    """What |A'| traps: F' and H' if A' misses them, the h_1 E'-curves it misses, b0 of B_0."""
    a_f, a_h, e_met = inv
    return trapped(((not a_f) + (not a_h) + _PENCIL_H1(ell) - e_met, EXC_SQ), (b0, B0_SQ))


def eliminate_by_delta(case: str | PencilCase, ell_max: int = 8) -> Elimination:
    """Replay the Euler-excess test for one pencil case across all l.

    Accepts a case label or the case record itself; returns the surviving
    values of l (empty tuple = the case is eliminated).
    """
    if isinstance(case, str):
        case = pencil_case(case)
    inv = a_f, a_h, e_met = _pencil_trapped(case)
    # at most A'.R_0 components of B_0 meet the moving part; the rest are trapped
    lhs = _affine(lambda ell: _pencil_sum(inv, ell, ell - case.ar0))
    rhs = _affine(lambda ell: euler_excess(_PENCIL_KY2(ell), case.aprime2, case.apk))
    ell_min = 1 if case.ar0 >= 1 else 0
    b0_note = (f"at least l-{case.ar0} components of B_0" if case.ar0
               else "all l components of B_0")
    trace = [f"delta = {rhs}",
             f"trapped: F'={not a_f} H'={not a_h}, E' count (4+l)-{e_met}, {b0_note}",
             f"contributions >= {lhs}"]
    survivors = [ell for ell in range(ell_min, ell_max + 1)
                 if _pencil_sum(inv, ell, max(0, ell - case.ar0)) <= rhs(ell)]
    if lhs.coef <= rhs.coef:
        raise FibrationError("slope comparison fails; survivor scan is not complete")
    verdict = "contradiction" if not survivors else "survives"
    trace.append(f"surviving l: {survivors}")
    return Elimination(f"delta.{case.label}", str(lhs), str(rhs), verdict,
                       tuple(trace), tuple(survivors), case)


def _partitions(total: int, slots: int):
    """Nonincreasing ``slots``-tuples with sum ``total``, lexicographically decreasing."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _partitions(total - first, slots - 1):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def p1e_meeting_distributions(case: PencilCase, ell: int) -> list[tuple[int, ...]]:
    """In case (1e) every component of B_0 must meet the moving part.

    ``case`` is the (1e) record of the A'^2 = 1 list.  Enumerates the
    distributions of A'.B_0 = A.R_0 over the l components and keeps those passing
    the Euler test; all survivors have every entry positive.
    """
    inv = _pencil_trapped(case)
    rhs = euler_excess(_PENCIL_KY2(ell), case.aprime2, case.apk)
    # a component of B_0 the moving part misses lies in a fibre
    return [dist for dist in _partitions(case.ar0, ell)
            if _pencil_sum(inv, ell, dist.count(0)) <= rhs]


def t_iii_survivors(passes: dict[str, Elimination]) -> dict[int, tuple[str, ...]]:
    """Surviving (l, case) pairs after the Euler-excess pass.

    ``passes`` maps each case label to its Euler elimination.
    """
    table: dict[int, list[str]] = {}
    for lab, elim in passes.items():
        for ell in elim.survivors:
            table.setdefault(ell, []).append(lab)
    return {ell: tuple(sorted(labs)) for ell, labs in sorted(table.items())}


# -- case (iii): lattice-based eliminations -----------------------------------

# N misses G' and the cycles, so N.N_1 = N^2 + N.K_Y
_N2, _NK = ladder_top(0)
_NN1 = adjoint_pairing(_N2, _NK, 0)


# A pencil record gives A'.N = case.ak, A'.K_Y = case.apk and A'.B_0 = case.ar0:
# pi^* N = 3 K_S (case N has A = 3 K_S and A' = N) and pi^* B_0 = 3 R_0, so
# A'.N = A.K_S, the record's moving/fixed branch, and A'.B_0 = A.R_0.


def elim_p_l0(cases: list[PencilCase]) -> dict[str, Elimination]:
    """Cases (0a), (0c), (0f), at l = n = 0: the E'-curves D meets lie in Phi' = N - A',
    so they meet each adjoint N_i at most as Phi' does.  Down the ladder from N_0 = N,
    the first N_i they meet more kills the case, at most as deep as the ladder at
    l = n = 0 goes.  N, A' and E' miss the contracted curves."""
    out = {}
    levels = len(ladder_counts("s.3l", 0))
    for case in cases:
        e_met = _pencil_trapped(case)[2]
        steps = (_NK, case.apk, canonical_degree(EXC_SQ))  # X.K_Y for X = N, A', E' (rational)
        nn, an, en = _N2, case.ak, 0  # X.N for X = N, A', E': pi^* N = 3 K_S misses E
        walk = []
        for _ in range(levels):
            lhs, rhs = e_met * en, nn - an
            walk.append((lhs, rhs))
            if lhs > rhs:
                break
            nn, an, en = (adjoint_pairing(x, k, 0) for x, k in zip((nn, an, en), steps))
        trace = (f"{e_met} E'-curves lie in Phi' = N - A'; their sum and Phi' meet "
                 f"N_0 = N, N_1, ... in {walk}", f"{lhs} <= {rhs} fails")
        out[case.label] = Elimination(f"p.l0.{case.label}", str(lhs), str(rhs),
                                      "contradiction" if lhs > rhs else "survives", trace)
    return out


def elim_p_no0d(case: PencilCase, ell: int) -> Elimination:
    """Case (0d) at the l it survives at: the adjoint A_1 = A' + K - G' - sum C_j of the
    elliptic pencil vanishes, which forces m cycles C_j, each in a fibre of |A'|; then
    B_0.(sum C_j) exceeds m A'.B_0."""
    ky2, a_b0 = _PENCIL_KY2(ell), case.ar0
    # A_1^2 has slope 1 in m, so m is -A_1^2 at m = 0, as ladder_counts solves its last count
    _, a1sq0, _ = adjoint_step(case.aprime2, case.apk, ky2, _H2)
    m = -a1sq0
    _, _, a1k = adjoint_step(case.aprime2, case.apk, ky2, _H2 + m)
    # 0 = A_1.B_0, B_0 misses G' and B_0.K by adjunction, B_0 being rational
    b0_sum_c = adjoint_pairing(a_b0, canonical_degree(B0_SQ), 0)
    ok = b0_sum_c > m * a_b0
    return Elimination(
        "p.no0d", str(b0_sum_c), str(m * a_b0),
        "contradiction" if ok else "survives",
        (f"0 = A_1^2 = {a1sq0} + m forces m = {m}; A_1.K = {a1k}",
         f"0 = A_1.B_0 gives B_0 sum C_j = {b0_sum_c}",
         f"some C_1.B_0 >= {a_b0 + 1}, but C_1 <= A'-fibre forces C_1.B_0 <= A'.B_0 = {a_b0}"),
    )


def elim_t_no4(case: PencilCase) -> Elimination:
    """n = 3l - 4 gives a rational net |N_1| = |2 Theta| and then the elliptic curve
    A' of ``case``, (1e), would carry a degree-1 pencil; impossible."""
    trace = []
    # |N_1| is a net with N_1^2 = 0: the fixed/moving split forces
    # Delta^2 = Delta.T = T^2 = 0, so Delta = 2 Theta for a pencil Theta.
    n_theta_cases = [t for t in (1, 2) if 2 * t <= _NN1]
    trace.append(f"N.N_1 = {_NN1} = 2 N.Theta + N.T")
    # N.Theta = 1 would force Delta = T by the index theorem: rejected.
    trace.append("N.Theta = 1 rejected: (Delta - T)^2 = 0 would make Delta = T")
    n_theta = max(n_theta_cases)
    theta_k = canonical_degree(0)  # Theta^2 = 0 and Theta rational
    trace.append(f"N.Theta = {n_theta}, T = 0, Theta.K_Y = {theta_k}: rational pencil")
    # A' misses G' and the cycles, so A'.Theta = A'.N_1 / 2
    a_theta = adjoint_pairing(case.ak, case.apk, 0) // 2
    trace.append(f"A'.Theta = {a_theta} with A' elliptic")
    h0_restriction = 2  # Theta cuts a base-point-free pencil on A'
    h0_elliptic_degree1 = 1  # degree-1 divisor on an elliptic curve
    return Elimination(
        "t.no4", str(h0_restriction), str(h0_elliptic_degree1),
        "contradiction" if h0_restriction > h0_elliptic_degree1 else "survives",
        tuple(trace) + (
            "h^0(A', Theta|_A') = 2 but a degree-1 divisor on an elliptic curve has h^0 = 1",
        ),
    )


def elim_p_1e(case: PencilCase, offsets: tuple[int, ...]) -> Elimination:
    """Case (1e) dies for each given n - 3l in -3..0 by exact lattice arithmetic.
    Any other offset raises ``FibrationError``: n = 3l - 4, where N_1^2 = 0, is
    t.no4's, and above 0 N_1^2 exceeds what the index theorem allows."""
    trace = []
    closed = {}
    s = adjoint_pairing(case.ak, case.apk, 0)  # A'.N_1, as A' misses G' and the cycles
    for off in offsets:
        # with K_Y^2 = -2 - 3l, N_1^2 and N_1.K depend on n - 3l only: read them at l = 0
        _, n1sq, n1k = adjoint_step(_N2, _NK, _PENCIL_KY2(0), _H2 + off)
        slack = index_slack(n1sq, s, case.aprime2)
        if n1sq < 1 or slack < 0:
            raise FibrationError(f"n - 3l must lie in -3..0, got {offsets}")
        dim_n1 = 3 + off  # h^0(N_1) - 1
        # s = A'.N_1 satisfies (N_1 - s A')^2 = N_1^2 - s^2 <= 0, so s = 1
        # needs N_1^2 = 1 and then N_1 = A'
        if n1sq <= 1:
            if dim_n1 == 1:
                closed[off] = False
                trace.append(f"n-3l={off}: s = 1 not excluded")
                continue
            trace.append(f"n-3l={off}: s=1 forces N_1=A', dims {dim_n1} vs 1 differ")
        if slack == 0:
            # equality in the index theorem: N_1 = s A', and then N.N_1 = s N.A'
            closed[off] = _NN1 != s * case.ak
            trace.append(f"n-3l={off}: N_1 = {s}A' gives N.N_1 {_NN1} != {s * case.ak}")
            continue
        m = -off + 2  # A_1 = 0 forces m = 3l - n + 2 contracted cycles
        n1_sum_c = adjoint_pairing(s, n1k, 0)  # 0 = A_1.N_1, and N_1 misses G'
        if n1_sum_c < 0:
            closed[off] = True
            trace.append(f"n-3l={off}: N_1 sum C_j = {n1_sum_c} < 0, excluded")
            continue
        if off == -2:
            # the four cycles C_j sit among the five Z'; N_1 = A' + Z'_5 and then
            # 0 = F'.N_1 = F'.A' + F'.Z'_5, with F'.Z'_5 = 0
            f_n1 = _pencil_trapped(case)[0]
            closed[off] = f_n1 != 0
            trace.append(f"n-3l=-2: m={m}, 0 = F'.N_1 = F'.A' + F'.Z'_5 = {f_n1}")
        if off == -1:
            # one C-cycle meets N_1, the other two sit among the n' <= 2 extra
            # cycles; n' = 1 leaves too few, n' = 2 makes A' = N_2 and then
            # Phi'.N_2 = Phi'.A' = N.A' - A'^2 against B_0 <= Phi' with B_0.A'
            needed, available = m - 1, 2
            b0_n2, phi_n2 = case.ar0, case.ak - case.aprime2
            closed[off] = needed <= available and b0_n2 > phi_n2
            trace.append(f"n-3l=-1: m={m}, n'=1 leaves {needed} cycles for 1 slot; "
                         f"n'=2: B_0.N_2 = {b0_n2} > Phi'.N_2 = {phi_n2}")
    ok = all(closed.get(off, False) for off in offsets)
    return Elimination("p.1e", "per-branch", "per-branch",
                       "contradiction" if ok else "survives", tuple(trace))


def t_iii2_survivors(survivors: dict[int, tuple[str, ...]],
                     closed: set[str]) -> dict[int, tuple[str, ...]]:
    """The Euler-pass survivors less the case labels the lattice eliminations close."""
    out = {}
    for ell, labs in survivors.items():
        remaining = tuple(lab for lab in labs if lab not in closed)
        if remaining:
            out[ell] = remaining
    return out


# -- case (i) ------------------------------------------------------------------


def case_i_grid() -> list[tuple[int, int]]:
    """Admissible (Gamma^2, l) pairs in case (i): h_1 = (3 - Gamma^2)/2 + l <= 4 bounds l
    by 4 - h_1(l = 0); then h_1 >= 1 and K_Y^2 >= -12, the floor ``elim_p_no0`` reads."""
    return [(gamma_sq, ell) for gamma_sq in (1, -1, -3, -5, -7)
            for ell in range(0, 4 - RamificationData(1, 0, 3, gamma_sq).h1 + 1)]


_FH_CASE_I = 2 * 3  # F' and H' over the h_2 = 3 points lie in fibres of |N_1|
_N1_CASE_I = (1, canonical_degree(1, 1))  # (N_1^2, N_1.K_Y) when N_1^2 = p_a(N_1) = 1


def elim_p_no0() -> Elimination:
    """Case (i) with N_1^2 = 0: n = 8 and both cycle structures overshoot delta."""
    n1sq = 0
    # n = N_1^2 - 1 mod 3 and n = N_1^2 - 4 - K_Y^2, with K_Y^2 no less than on case (i)'s
    # grid; the six trapped F'/H' must fit in delta of the rational pencil |N_1|
    n_max = n1sq - 4 - min(quotient_k2(RamificationData(1, ell, 3, g)) for g, ell in case_i_grid())
    deltas = {n: euler_excess(n1sq - 4 - n, n1sq, canonical_degree(n1sq))
              for n in range(0, n_max + 1)
              if n % 3 == (n1sq - 1) % 3}
    candidates = [n for n, delta in deltas.items() if trapped((_FH_CASE_I, EXC_SQ)) <= delta]
    if candidates != [8]:
        return Elimination("p.no0", str(candidates), "[8]", "failed",
                           ("the admissible cycle counts are not pinned to 8",))
    n = candidates[0]
    delta_val = deltas[n]
    all_irred = trapped((_FH_CASE_I, EXC_SQ), (n, CYCLE_SQ))
    reducible = trapped((_FH_CASE_I + 1, EXC_SQ))
    ok = all_irred > delta_val and reducible > delta_val
    return Elimination(
        "p.no0", str(all_irred), str(delta_val),
        "contradiction" if ok else "survives",
        (f"N_1^2 = 0: 18 <= delta = 12 + n with n = 2 mod 3, n <= {n_max} pins n = {n}",
         f"all cycles irreducible: 18 + {n} = {all_irred} <= {delta_val} fails",
         f"a reducible cycle contains some E'_k: 18 + 3 = {reducible} <= {delta_val} fails"),
    )


def _scan_case_i(prop_id: str, lhs_text: str, case_split, moving: tuple[int, int],
                 notes: tuple[str, ...] = ()) -> Elimination:
    """Run a trapped-component scan over the case (i) grid at N_1^2 = 1.

    ``case_split(gamma_sq, ell, h1)`` yields (tag, E' count, B_0 count, Gamma
    count) for what each branch traps besides the six F'/H'; a branch survives
    when its sum is at most the Euler excess of (F^2, F.K_Y) = ``moving``.
    """
    survivors, trace = [], []
    for gamma_sq, ell in case_i_grid():
        r = RamificationData(1, ell, 3, gamma_sq)
        ky2 = quotient_k2(r)
        n = _N1_CASE_I[0] - 4 - ky2  # N_1^2 = 4 + K_Y^2 + n
        delta_val = euler_excess(ky2, *moving)
        for tag, e_count, b0, gamma in case_split(gamma_sq, ell, r.h1):
            lhs = trapped((_FH_CASE_I + e_count, EXC_SQ), (b0, B0_SQ),
                          (gamma, image_square(gamma_sq)))
            status = "survives" if lhs <= delta_val else "dies"
            trace.append(f"G^2={gamma_sq} l={ell} n={n} {tag}: {lhs} vs {delta_val} {status}")
            if lhs <= delta_val:
                survivors.append((gamma_sq, ell, n, tag))
    delta_at_n0 = euler_excess(_N1_CASE_I[0] - 4, *moving)  # delta grows by one per cycle
    return Elimination(prop_id, lhs_text, f"{delta_at_n0}+n",
                       "contradiction" if not survivors else "survives",
                       tuple(trace) + notes, tuple(survivors))


def elim_p_noZ() -> Elimination:
    """|N_1| = |Delta| + Z_i with a reducible cycle: every branch overshoots."""
    def split(gamma_sq, ell, h1):
        # Case I: B_0.Delta = 1, E'.Delta = 0
        yield "I/Gamma-meets", h1, ell, 0
        if gamma_sq <= -1 and ell >= 1:
            yield "I/comp-meets", h1, ell - 1, 1
        # Case II: B_0.Delta = 0, E'.Delta = 2 (reconstructed branch)
        if gamma_sq <= -1 and h1 >= 2:
            yield "II", h1 - 2, ell, 1

    return _scan_case_i("p.noZ", "18+3h1+6l", split, (0, 0),
                        ("Case II reconstructed from the same contribution template",))


def elim_p_noN() -> Elimination:
    """N = N_1 + Delta: all of B_0 and h1 - 1 of the E' are trapped."""
    def split(gamma_sq, ell, h1):
        if gamma_sq <= -1:
            yield "main", h1 - 1, ell, 1

    return _scan_case_i("p.noN", "18-3G^2+6l+3(h1-1)", split, (0, 0))


def elim_p_noN1() -> Elimination:
    """|N_1| without fixed part: only n = 6 with (Gamma^2, l) in {(-3,0), (-1,1)}.

    Case I dies by the Euler count; in case II the structural cycle argument
    (reconstructed) removes n = 9, leaving exactly the printed survivors.
    """
    def split(gamma_sq, ell, h1):
        # Case I: B_0.N_1 = 2, E'.N_1 = 1
        yield "I/Gamma-2", h1 - 1, ell, 0
        if ell >= 1:
            yield "I/Gamma-1", h1 - 1, ell - 1, 0
        if gamma_sq <= -1 and ell >= 1:
            yield "I/Gamma-0", h1 - 1, max(0, ell - 2), 1
        # Case II: B_0.N_1 = 1, E'.N_1 = 3 needs h1 >= 3
        if h1 >= 3:
            yield "II/Gamma-1", h1 - 3, ell, 0
            if gamma_sq <= -1 and ell >= 1:
                yield "II/comp-meets", h1 - 3, ell - 1, 1

    scan = _scan_case_i("p.noN1", "18+3(h1-1)+6l (case I)", split, _N1_CASE_I)  # N_1 moves
    trace = list(scan.trace)
    # structural kill (reconstructed): with t >= 0 trapped E'-curves the cycle catalog
    # admits at most 3t cycles; the all-meeting n = 6, t = 0 is left to p.no16
    kept = []
    for gamma_sq, ell, n, tag in scan.survivors:
        t = RamificationData(1, ell, 3, gamma_sq).h1 - 3  # trapped E'-count in case II
        if tag.startswith("I/") or n <= 3 * t or (n == 6 and t == 0):
            kept.append((gamma_sq, ell, n, tag))
        else:
            trace.append(f"G^2={gamma_sq} l={ell} n={n} {tag}: cycle catalog kills it")
    expected = {(-3, 0, 6), (-1, 1, 6)}
    got = {(g, e, n) for g, e, n, _ in kept}
    verdict = "survives" if got == expected else "failed"
    return Elimination(
        "p.noN1", scan.lhs, scan.rhs, verdict,
        tuple(trace) + ("survivors must be exactly n=6 with (G^2,l) in {(-3,0),(-1,1)}",),
        tuple(sorted(got)),
    )


def elim_p_no16() -> Elimination:
    """n = 6: six irreducible cycles overshoot delta; a reducible one forces
    some E'_k inside a cycle, contradicting that every E'_k meets N_1."""
    n = 6
    delta_hi = euler_excess(_N1_CASE_I[0] - 4 - n, *_N1_CASE_I)  # N_1^2 = 4 + K_Y^2 + n
    all_irred = trapped((_FH_CASE_I, EXC_SQ), (n, CYCLE_SQ))
    ok = all_irred > delta_hi
    return Elimination(
        "p.no16", str(all_irred), str(delta_hi),
        "contradiction" if ok else "survives",
        (f"all six cycles irreducible: 18 + 6 = {all_irred} <= {delta_hi} fails",
         "a reducible cycle contains an E'_k, so E'_k.N_1 = 0; but every E'_k meets N_1"),
    )


def n1_squares(nn1: int) -> list[int]:
    """The N_1^2 the index theorem leaves against N given N.N_1: with N.N_1 = 2,
    (3 N_1 - 2 N)^2 = 9 N_1^2 - 12 <= 0 pins N_1^2 to {0, 1}."""
    n_sq = ladder_top(1)[0]
    # candidates 0 <= N_1^2 <= (N.N_1)^2, a bound as N^2 >= 1
    return [x for x in range(nn1 ** 2 + 1) if index_slack(x, nn1, n_sq) >= 0]


def _fixed_part_shapes(n1_delta: int, n1_t: int) -> list[tuple[int, int, int]]:
    """(Delta^2, Delta.T, T^2) with N_1.Delta = Delta^2 + Delta.T and N_1.T = Delta.T + T^2
    as given, Delta^2 >= 0, Delta.T >= 0 and T^2 arbitrary: the equations give Delta^2 and
    T^2 from Delta.T, which Delta^2 >= 0 bounds by N_1.Delta; largest Delta^2 first."""
    return [(n1_delta - dt, dt, n1_t - dt) for dt in range(0, n1_delta + 1)]


def check_l_N10() -> tuple[bool, list[str], list[tuple[int, int, int]]]:
    """N_1^2 = 0 forces an empty fixed part."""
    trace = []
    solutions = _fixed_part_shapes(0, 0)
    trace.append(f"Delta^2 = Delta.T = T^2 = 0 from {solutions}")
    ok = solutions == [(0, 0, 0)]
    # N.Delta + N.T = N.N_1 = 2; the (1,1) split makes Delta = T (index), absurd
    trace.append("N.Delta = N.T = 1 rejected: (Delta-T)^2 = 0 forces Delta = T")
    trace.append("N.Delta = 2: (N_1 - Delta)^2 = T^2 = 0 so T = 0")
    return ok, trace, solutions


def check_l_N1() -> tuple[bool, list[str], list[tuple[int, int, int]]]:
    """N_1^2 = 1: no fixed part unless Delta^2 = 0 with the two listed shapes."""
    trace = []
    # 1 = N_1.Delta + N_1.T with N_1.Delta >= 1 (else Delta = 0): so
    # N_1.Delta = 1 and N_1.T = 0
    shapes = _fixed_part_shapes(1, 0)
    trace.append(f"(Delta^2, Delta.T, T^2) in {shapes}")
    ok = shapes == [(1, 0, 0), (0, 1, -1)]
    trace.append("T^2 = -1 branch: N.Delta = 1 gives N = N_1 + Delta;"
                 " N.Delta = 2 gives N_1 = Delta + Z_i (reducible cycle)")
    return ok, trace, shapes


# -- case (ii) -----------------------------------------------------------------


def elim_t_ii(h2: int) -> Elimination:
    """The elliptic pencil |M'| traps six (-3)-curves and l - 1 components of B_0."""
    # h_1 + 2 h_2 = 6 + l forces h_1 = l + 6 - 2 h_2 >= 0, so l >= 2 h_2 - 6.
    ell_min = 2 * h2 - 6
    # M' meets F', H' over one q: 2(h_2 - 1) trapped; M' elliptic with M'^2 = 0
    lhs = _affine(lambda ell: trapped((2 * (h2 - 1), EXC_SQ), (ell - 1, B0_SQ)), ell_min)
    rhs = _affine(lambda ell: euler_excess(quotient_k2(RamificationData(0, ell, h2)), 0,
                                           canonical_degree(0, 1)), ell_min)
    # lhs > rhs at l_min, and lhs grows faster: so for every l >= l_min
    ok = lhs(ell_min) > rhs(ell_min) and lhs.coef > rhs.coef
    return Elimination(
        "t.ii", str(lhs), str(rhs),
        "contradiction" if ok else "survives",
        (f"R_0 lies in the fixed part of |2K_S|: h_1 = l - {ell_min} >= 0 forces l >= {ell_min}",
         f"six trapped F'/H' curves and l-1 trapped (-6)-components: {lhs} <= {rhs}",
         f"forces l <= 1, against l >= {ell_min}"),
    )


# -- ruled endgame (case iii, n = 3l, l = 1) ------------------------------------


def elim_t_no1rul() -> Elimination:
    """n = 3, l = 1, rational pencil |N_3|: both cycle structures trap 15 > 13."""
    ell = 1
    delta_val = euler_excess(_PENCIL_KY2(ell), 0, canonical_degree(0))  # N_3^2 = 0, rational
    irred = trapped((2 + 3, EXC_SQ))  # F', H', and the three E'-curves met by the cycles
    red = trapped((2 + 1, EXC_SQ), (1, B0_SQ))  # F', H', one E'_k, and B_0
    ok = irred > delta_val and red > delta_val
    return Elimination(
        "t.no1rul", str(irred), str(delta_val),
        "contradiction" if ok else "survives",
        (f"delta = 12 + 2 + 3l - 4 = {delta_val}",
         f"all Z_i irreducible: F', H', E'_3, E'_4, E'_5 trapped: {irred} > {delta_val}",
         f"Z_3 reducible: F', H', E'_k and the (-6)-curve B_0 trapped: {red} > {delta_val}"),
    )


ALL_DELTA_ELIMINATIONS = {
    "t.ii": elim_t_ii,
    "p.no0": elim_p_no0,
    "p.noZ": elim_p_noZ,
    "p.noN": elim_p_noN,
    "p.noN1": elim_p_noN1,
    "p.no16": elim_p_no16,
    "t.no1rul": elim_t_no1rul,
}

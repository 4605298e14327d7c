"""Euler-number bookkeeping for the pencil fibrations and the case eliminations.

Every elimination regenerates both sides of its decisive inequality from the
raw case parameters (counts of trapped negative curves vs the Euler excess
delta of the singular fibres) and records the verdict with a derivation
trace.  Rational intermediates are exact; comparisons happen on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pencil import PencilCase, pencil_case


class FibrationError(Exception):
    pass


@dataclass(frozen=True)
class LinearForm:
    """Integer-affine expression c0 + c1 * l in the count l of (-2)-components."""

    const: int
    coef: int = 0
    var: str = "l"

    def __call__(self, value: int) -> int:
        return self.const + self.coef * value

    def __add__(self, other):
        other = _as_form(other)
        return LinearForm(self.const + other.const, self.coef + other.coef, self.var)

    def __sub__(self, other):
        other = _as_form(other)
        return LinearForm(self.const - other.const, self.coef - other.coef, self.var)

    def __str__(self) -> str:
        if self.coef == 0:
            return str(self.const)
        coef = f"{self.coef}{self.var}" if self.coef != 1 else self.var
        if self.const == 0:
            return coef
        return f"{self.const}+{coef}" if self.coef > 0 else f"{self.const}-{-self.coef}{self.var}"


def _as_form(x) -> LinearForm:
    return x if isinstance(x, LinearForm) else LinearForm(int(x))


@dataclass(frozen=True)
class FibrationModel:
    """A pencil-induced fibration: ambient Euler number, fibre genus, base points."""

    e_ambient: int
    fiber_pa: int
    base_points: int
    components: tuple[tuple[str, int, int, int], ...] = ()  # (name, self_int, mult, pa)

    def __post_init__(self) -> None:
        if delta(self) < 0:
            raise FibrationError("negative Euler excess")


def delta(model: FibrationModel) -> int:
    """Total Euler excess of the singular fibres: e(Y) + base - e(fiber) e(P^1)."""
    return model.e_ambient + model.base_points - 2 * (2 - 2 * model.fiber_pa)


def min_contribution(component) -> int:
    """An irreducible curve of square -n inside a fibre adds at least n to delta.

    Accepts the self-intersection or a component tuple (name, self_int, ...).
    """
    self_int = component[1] if isinstance(component, tuple) else component
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


@dataclass(frozen=True)
class Elimination:
    prop_id: str
    lhs: str
    rhs: str
    verdict: str  # "contradiction" or "survives"
    trace: tuple[str, ...] = ()
    survivors: tuple = ()

    def to_json(self) -> dict:
        return {
            "prop_id": self.prop_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "trace": list(self.trace),
            "survivors": [list(s) if isinstance(s, tuple) else s for s in self.survivors],
        }


# -- case (iii): the pencil |A'| ----------------------------------------------


@dataclass(frozen=True)
class TrappedInventory:
    """Which negative curves are forced into singular fibres of |A'|."""

    f_trapped: bool
    h_trapped: bool
    e_met: int  # number of E'-curves met by the moving part
    ar0: int

    def lhs(self) -> LinearForm:
        # E'-curves: h1 = 4 + l of square -3; B_0: l components of square -6,
        # of which at most ar0 meet the moving part.
        base = 3 * (self.f_trapped + self.h_trapped) + 3 * (4 - self.e_met) - 6 * self.ar0
        return LinearForm(base, 3 + 6)


def case_inventory(case: PencilCase) -> TrappedInventory:
    """Read the trapped components off the exceptional content of the case."""
    d = dict(case.d)
    f = d.get("F", 0)
    g = d.get("G", 0)
    h = d.get("H", 0)
    a_f = f - g  # A'.F' computed from the blow-up bookkeeping
    a_h = h - g
    e_met = sum(1 for comp in d if comp.startswith("E"))
    return TrappedInventory(a_f == 0, a_h == 0, e_met, case.ar0)


def pencil_delta(case: PencilCase) -> LinearForm:
    """delta = 14 + 3 l + 3 A'^2 + 2 A'.K_Y."""
    return LinearForm(14 + 3 * case.aprime2 + 2 * case.apk, 3)


def eliminate_by_delta(case: str | PencilCase, ell_max: int = 8) -> Elimination:
    """Replay the Euler-excess test for one pencil case across all l.

    Accepts a case label or the case record itself; returns the surviving
    values of l (empty tuple = the case is eliminated).
    """
    if isinstance(case, str):
        case = pencil_case(case)
    inv = case_inventory(case)
    lhs = inv.lhs()
    rhs = pencil_delta(case)
    ell_min = 1 if case.ar0 >= 1 else 0
    survivors = []
    b0_note = (f"at least l-{case.ar0} components of B_0" if case.ar0
               else "all l components of B_0")
    trace = [
        f"delta = {rhs}",
        f"trapped: F'={inv.f_trapped} H'={inv.h_trapped}, "
        f"E' count (4+l)-{inv.e_met}, {b0_note}",
        f"contributions >= {lhs}",
    ]
    for ell in range(ell_min, ell_max + 1):
        trapped_b0 = max(0, ell - case.ar0)
        val = (3 * (inv.f_trapped + inv.h_trapped)
               + 3 * (4 + ell - inv.e_met)
               + 6 * trapped_b0)
        if val <= rhs(ell):
            survivors.append(ell)
    if lhs.coef <= rhs.coef:
        raise FibrationError("slope comparison fails; survivor scan is not complete")
    verdict = "contradiction" if not survivors else "survives"
    trace.append(f"surviving l: {survivors}")
    return Elimination(f"delta.{case.label}", str(lhs), str(rhs), verdict,
                       tuple(trace), tuple(survivors))


def elim_p_0() -> dict[str, Elimination]:
    """A'^2 = 0: only (0a), (0c), (0f) with l=0 and (0d) with l=1 survive; also (0g)."""
    return {lab: eliminate_by_delta(lab) for lab in
            ("0a", "0b", "0c", "0d", "0e", "0f", "0g", "0h")}


def elim_p_1() -> dict[str, Elimination]:
    return {lab: eliminate_by_delta(lab) for lab in ("1a", "1b", "1c", "1d", "1e", "1f")}


def elim_p_3() -> Elimination:
    return eliminate_by_delta("N")


def p1e_meeting_distributions(case: PencilCase, ell: int) -> list[tuple[int, ...]]:
    """In case (1e) every component of B_0 must meet the moving part.

    ``case`` is the (1e) record of the A'^2 = 1 list.  Enumerates the
    distributions of A'.B_0 = 3 over the l components and keeps those passing
    the Euler test; all survivors have every entry positive.
    """
    rhs = pencil_delta(case)(ell)
    out = []

    def distribute(remaining: int, slots: int, prefix: tuple[int, ...]):
        if slots == 0:
            if remaining == 0:
                yield prefix
            return
        cap = prefix[-1] if prefix else remaining
        for v in range(min(remaining, cap), -1, -1):
            yield from distribute(remaining - v, slots - 1, prefix + (v,))

    for dist in distribute(3, ell, ()):
        trapped = sum(1 for v in dist if v == 0)
        lhs = 3 + 3 * (4 + ell) + 6 * trapped  # H' + all E' + trapped B_0 parts
        if lhs <= rhs:
            out.append(dist)
    return out


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


def elim_p_l0() -> dict[str, Elimination]:
    """Cases (0a), (0c), (0f) die on exact intersection numbers with N_2 or N_1."""
    out = {}
    # (0a): A'.N = 2 so Phi'.N_2 = N.N_2 - A'.N_2 = 5 - 2 = 3, yet the two
    # E'-components of the fixed part give (E'_1+E'_2).N_2 = 4.
    nn1, nk = 4, 1
    a_n = 2
    a_n1 = a_n  # A'(N + K - G') with A'.K = 0, A'.G' = 0
    nn2 = nn1 + nk
    phi_n2 = nn2 - a_n
    e_n2 = 2  # E'_k(N + 2K - 2G') = 2
    lhs, rhs = 2 * e_n2, phi_n2
    out["0a"] = Elimination(
        "p.l0.0a", str(lhs), str(rhs),
        "contradiction" if lhs > rhs else "survives",
        (f"Phi'.N_2 = N.N_2 - A'.N_2 = {nn2} - {a_n1} = {phi_n2}",
         f"E'_1 + E'_2 <= Phi' and each E'_k.N_2 = {e_n2}",
         f"{lhs} = (E'_1+E'_2).N_2 <= Phi'.N_2 = {rhs} fails"),
    )
    for lab, atoms in (("0c", 3), ("0f", 2)):
        a_n = 3
        phi_n1 = nn1 - a_n  # = 1
        e_n1 = 1
        lhs = atoms * e_n1  # the D-atoms force that many E'-components inside Phi'
        out[lab] = Elimination(
            f"p.l0.{lab}", str(lhs), str(phi_n1),
            "contradiction" if lhs > phi_n1 else "survives",
            (f"Phi'.N_1 = N.N_1 - A'.N_1 = {nn1} - {a_n} = {phi_n1}",
             f"{atoms} E'-components lie in Phi', each with E'.N_1 = {e_n1}",
             f"{lhs} <= {phi_n1} fails"),
        )
    return out


def elim_p_no0d() -> Elimination:
    """Case (0d): the vanishing adjoint A_1 forces four (-1)-cycles, then
    B_0.(sum C_j) = 5 makes some C_1.B_0 >= 2 against A'.B_0 = 1."""
    ell = 1
    ky2 = -2 - 3 * ell
    # 0 = A_1^2 = A'^2 + K^2 + G'^2 + 2 K.G'-corrections + m  ==>  m = 4
    m = -(0 + ky2 + (-1) + 2 * 1)
    a1k = 0 + ky2 + 1 + m
    b0k = 4  # B_0.K_Y = R_0.K - 2 R_0^2 for a (-2)-curve component
    b0_sum_c = 1 + b0k  # from 0 = A_1.B_0 = A'.B_0 + B_0.K - B_0.G' - B_0 sum C_j
    per_cycle_max = 1  # C_j <= fibres of |A'| so C_j.B_0 <= A'.B_0 = 1
    ok = b0_sum_c > m * per_cycle_max
    return Elimination(
        "p.no0d", str(b0_sum_c), str(m * per_cycle_max),
        "contradiction" if ok else "survives",
        (f"0 = A_1^2 = -4 + m forces m = {m}; A_1.K = {a1k}",
         f"0 = A_1.B_0 gives B_0 sum C_j = {b0_sum_c}",
         f"some C_1.B_0 >= 2, but C_1 <= A'-fibre forces C_1.B_0 <= A'.B_0 = 1"),
    )


def elim_t_no4() -> Elimination:
    """n = 3l - 4 gives a rational net |N_1| = |2 Theta| and then an elliptic
    curve would carry a degree-1 pencil; impossible."""
    trace = []
    # |N_1| is a net with N_1^2 = 0: the fixed/moving split forces
    # Delta^2 = Delta.T = T^2 = 0, so Delta = 2 Theta for a pencil Theta.
    nn1 = 4
    n_theta_cases = [t for t in (1, 2) if 2 * t <= nn1]
    trace.append(f"N.N_1 = {nn1} = 2 N.Theta + N.T")
    # N.Theta = 1 would force Delta = T by the index theorem: rejected.
    trace.append("N.Theta = 1 rejected: (Delta - T)^2 = 0 would make Delta = T")
    n_theta = max(n_theta_cases)
    theta_k = -2  # p_a(N_1) = -1 = 1 + Theta.K + ... solves Theta.K = -2
    trace.append(f"N.Theta = {n_theta}, T = 0, Theta.K_Y = {theta_k}: rational pencil")
    # (1e) has an elliptic moving part A' with A'^2 = 1 and A'.N_1 = 2.
    a_theta = 1
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


def elim_p_1e() -> Elimination:
    """Case (1e) dies for every admissible n - 3l by exact lattice arithmetic."""
    trace = []
    closed = {}
    nn1_values = {0: 4, -1: 3, -2: 2, -3: 1}  # N_1^2 per n - 3l
    for off, n1sq in nn1_values.items():
        dim_n1 = 3 + off  # h^0(N_1) - 1
        # s = A'.N_1 satisfies (N_1 - s A')^2 = N_1^2 - s^2 <= 0, so s = 1
        # needs N_1^2 = 1 and then N_1 = A'
        if n1sq <= 1:
            if dim_n1 == 1:
                closed[off] = False
                trace.append(f"n-3l={off}: s = 1 not excluded")
                continue
            trace.append(f"n-3l={off}: s=1 forces N_1=A', dims {dim_n1} vs 1 differ")
        if off == 0:
            # s = 2 with N_1^2 = 4 forces N_1 = 2A' and 4 = N.N_1 = 2 N.A' = 6
            nn1, twice_na = 4, 2 * 3
            closed[off] = nn1 != twice_na
            trace.append(f"n-3l=0: N_1 = 2A' gives N.N_1 {nn1} != {twice_na}")
            continue
        m = -off + 2  # A_1 = 0 forces m = 3l - n + 2 contracted cycles
        n1_sum_c = 2 + off  # 0 = A_1.N_1 = 2 + (n - 3l) - N_1 sum C_j
        if n1_sum_c < 0:
            closed[off] = True
            trace.append(f"n-3l={off}: N_1 sum C_j = {n1_sum_c} < 0, excluded")
            continue
        if off == -2:
            # the four cycles C_j sit among the five Z'; N_1 = A' + Z'_5 and then
            # 0 = F'.N_1 = F'.A' + F'.Z'_5 = 1
            f_n1 = 1 + 0
            closed[off] = f_n1 != 0
            trace.append(f"n-3l=-2: m={m}, 0 = F'.N_1 = F'.A' + F'.Z'_5 = {f_n1}")
        if off == -1:
            # one C-cycle meets N_1, the other two sit among the n' <= 2 extra
            # cycles; n' = 1 leaves too few, n' = 2 makes A' = N_2 and then
            # Phi'.N_2 = 2 against B_0 <= Phi' with B_0.A' = 3
            needed, available = m - 1, 2
            b0_n2, phi_n2 = 3, 2
            closed[off] = needed <= available and b0_n2 > phi_n2
            trace.append(f"n-3l=-1: m={m}, n'=1 leaves {needed} cycles for 1 slot; "
                         f"n'=2: B_0.N_2 = {b0_n2} > Phi'.N_2 = {phi_n2}")
    ok = all(closed.get(off, False) for off in nn1_values)
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
    """Admissible (Gamma^2, l) pairs in case (i)."""
    out = []
    for gamma_sq in (1, -1, -3, -5, -7):
        for ell in range(0, 5):
            h1 = (3 - gamma_sq) // 2 + ell
            ky2 = -4 - 3 * ell + (3 * gamma_sq - 1) // 2
            if 2 * ell > 5 + gamma_sq:
                continue
            if not 1 <= h1 <= 4:
                continue
            if ky2 < -12:
                continue
            out.append((gamma_sq, ell))
    return out


def _case_i_n(gamma_sq: int, ell: int, n1sq: int) -> Fraction:
    return n1sq + 3 * ell + Fraction(1 - 3 * gamma_sq, 2)


def elim_p_no0() -> Elimination:
    """Case (i) with N_1^2 = 0: n = 8 and both cycle structures overshoot delta."""
    n1sq = 0
    # n = N_1^2 - 1 mod 3 and n <= N_1^2 + 8; the six trapped exceptional
    # pairs force 18 <= delta = 12 + n
    candidates = [n for n in range(0, n1sq + 8 + 1)
                  if n % 3 == (n1sq - 1) % 3 and 18 <= 12 + 3 * n1sq + n]
    if candidates != [8]:
        return Elimination("p.no0", str(candidates), "[8]", "failed",
                           ("the admissible cycle counts are not pinned to 8",))
    n = candidates[0]
    delta_val = 12 + n
    all_irred = 18 + n * 1
    reducible = 18 + 3
    ok = all_irred > delta_val and reducible > delta_val
    return Elimination(
        "p.no0", str(all_irred), str(delta_val),
        "contradiction" if ok else "survives",
        (f"N_1^2 = 0: 18 <= delta = 12 + n with n = 2 mod 3, n <= 8 pins n = {n}",
         f"all cycles irreducible: 18 + {n} = {all_irred} <= {delta_val} fails",
         f"a reducible cycle contains some E'_k: 18 + 3 = {reducible} <= {delta_val} fails"),
    )


def _scan_case_i(prop: str, n1sq: int, case_split, delta_sq: int = 0) -> tuple[list, list[str]]:
    """Run a trapped-component scan over the case (i) grid.

    ``case_split(gamma_sq, ell, h1, n, delta)`` yields (tag, lhs) pairs; a pair
    survives when lhs <= delta.  ``delta_sq`` is the self-intersection of the
    moving part (0 when a fixed part splits off, N_1^2 when it does not).
    """
    survivors = []
    trace = []
    for gamma_sq, ell in case_i_grid():
        n = _case_i_n(gamma_sq, ell, n1sq)
        if n.denominator != 1 or n < 0:
            continue
        n = int(n)
        if n % 3 != (n1sq - 1) % 3:
            continue
        h1 = (3 - gamma_sq) // 2 + ell
        delta_val = 12 + 3 * n1sq + n + delta_sq
        for tag, lhs in case_split(gamma_sq, ell, h1, n, delta_val):
            status = "survives" if lhs <= delta_val else "dies"
            trace.append(f"G^2={gamma_sq} l={ell} n={n} {tag}: {lhs} vs {delta_val} {status}")
            if lhs <= delta_val:
                survivors.append((gamma_sq, ell, n, tag))
    return survivors, trace


def elim_p_noZ() -> Elimination:
    """|N_1| = |Delta| + Z_i with a reducible cycle: every branch overshoots."""

    def split(gamma_sq, ell, h1, n, delta_val):
        # Case I: B_0.Delta = 1, E'.Delta = 0
        yield "I/Gamma-meets", 18 + 3 * h1 + 6 * ell
        if gamma_sq <= -1 and ell >= 1:
            yield "I/comp-meets", 18 + 3 * h1 - 3 * gamma_sq + 6 * (ell - 1)
        # Case II: B_0.Delta = 0, E'.Delta = 2 (reconstructed branch)
        if gamma_sq <= -1 and h1 >= 2:
            yield "II", 18 + 3 * (h1 - 2) - 3 * gamma_sq + 6 * ell

    survivors, trace = _scan_case_i("p.noZ", 1, split)
    return Elimination(
        "p.noZ", "18+3h1+6l", "15+n",
        "contradiction" if not survivors else "survives",
        tuple(trace) + ("Case II reconstructed from the same contribution template",),
        tuple(survivors),
    )


def elim_p_noN() -> Elimination:
    """N = N_1 + Delta: all of B_0 and h1 - 1 of the E' are trapped."""

    def split(gamma_sq, ell, h1, n, delta_val):
        if gamma_sq <= -1:
            yield "main", 18 - 3 * gamma_sq + 6 * ell + 3 * (h1 - 1)

    survivors, trace = _scan_case_i("p.noN", 1, split)
    return Elimination(
        "p.noN", "18-3G^2+6l+3(h1-1)", "15+n",
        "contradiction" if not survivors else "survives",
        tuple(trace), tuple(survivors),
    )


def elim_p_noN1() -> Elimination:
    """|N_1| without fixed part: only n = 6 with (Gamma^2, l) in {(-3,0), (-1,1)}.

    Case I dies by the Euler count; in case II the structural cycle argument
    (reconstructed) removes n = 9, leaving exactly the printed survivors.
    """

    def split(gamma_sq, ell, h1, n, delta_val):
        # Case I: B_0.N_1 = 2, E'.N_1 = 1
        yield "I/Gamma-2", 18 + 3 * (h1 - 1) + 6 * ell
        if ell >= 1:
            yield "I/Gamma-1", 18 + 3 * (h1 - 1) + 6 * (ell - 1)
        if gamma_sq <= -1 and ell >= 1:
            extra = 6 * (ell - 2) if ell >= 2 else 0
            yield "I/Gamma-0", 18 - 3 * gamma_sq + extra + 3 * (h1 - 1)
        # Case II: B_0.N_1 = 1, E'.N_1 = 3 needs h1 >= 3
        if h1 >= 3:
            yield "II/Gamma-1", 18 + 3 * (h1 - 3) + 6 * ell
            if gamma_sq <= -1 and ell >= 1:
                yield "II/comp-meets", 18 + 3 * (h1 - 3) - 3 * gamma_sq + 6 * (ell - 1)

    # delta = 16 + n here: the moving part is N_1 itself with N_1^2 = 1
    survivors, trace = _scan_case_i("p.noN1", 1, split, delta_sq=1)
    # structural kill (reconstructed): with t trapped E'-curves the cycle
    # catalog admits at most 3t cycles when a reducible one occurs and at
    # most t when all are irreducible; every Case II survivor must satisfy it
    kept = []
    for gamma_sq, ell, n, tag in survivors:
        h1 = (3 - gamma_sq) // 2 + ell
        if tag.startswith("I/"):
            kept.append((gamma_sq, ell, n, tag))
            continue
        t = h1 - 3  # trapped E'-count in case II
        if n <= max(t, 3 * t):
            kept.append((gamma_sq, ell, n, tag))
            continue
        if n == 6 and t == 0:
            # the all-meeting configuration; its internal tension is resolved
            # by the dedicated n = 6 elimination
            kept.append((gamma_sq, ell, n, tag))
            continue
        trace = trace + [f"G^2={gamma_sq} l={ell} n={n} {tag}: cycle catalog kills it"]
    expected = {(-3, 0, 6), (-1, 1, 6)}
    got = {(g, e, n) for g, e, n, _ in kept}
    verdict = "survives" if got == expected else "failed"
    return Elimination(
        "p.noN1", "18+3(h1-1)+6l (case I)", "16+n", verdict,
        tuple(trace) + ("survivors must be exactly n=6 with (G^2,l) in {(-3,0),(-1,1)}",),
        tuple(sorted(got)),
    )


def elim_p_no16() -> Elimination:
    """n = 6: six irreducible cycles overshoot delta; a reducible one forces
    some E'_k inside a cycle, contradicting that every E'_k meets N_1."""
    n = 6
    delta_hi = 16 + n
    all_irred = 18 + n
    ok = all_irred > delta_hi
    return Elimination(
        "p.no16", str(all_irred), str(delta_hi),
        "contradiction" if ok else "survives",
        (f"all six cycles irreducible: 18 + 6 = {all_irred} <= {delta_hi} fails",
         "a reducible cycle contains an E'_k, so E'_k.N_1 = 0; but every E'_k meets N_1"),
    )


def check_l_n1() -> bool:
    """(3 N_1 - 2 N)^2 = 9 N_1^2 - 12 <= 0 pins N_1^2 to {0, 1}."""
    n_sq, nn1 = 3, 2
    values = [x for x in range(0, 5) if 9 * x - 12 * nn1 + 4 * n_sq <= 0]
    return values == [0, 1]


def check_l_N10() -> tuple[bool, list[str]]:
    """N_1^2 = 0 forces an empty fixed part."""
    trace = []
    # 0 = N_1.Delta = Delta^2 + Delta.T and 0 = N_1.T = Delta.T + T^2 with all
    # three quantities constrained: Delta^2 >= 0, Delta.T >= 0, T^2 arbitrary.
    solutions = [(d2, dt, t2) for d2 in range(0, 3) for dt in range(0, 3)
                 for t2 in range(-2, 3)
                 if d2 + dt == 0 and dt + t2 == 0]
    trace.append(f"Delta^2 = Delta.T = T^2 = 0 from {solutions}")
    ok = solutions == [(0, 0, 0)]
    # N.Delta + N.T = N.N_1 = 2; the (1,1) split makes Delta = T (index), absurd
    trace.append("N.Delta = N.T = 1 rejected: (Delta-T)^2 = 0 forces Delta = T")
    trace.append("N.Delta = 2: (N_1 - Delta)^2 = T^2 = 0 so T = 0")
    return ok, trace


def check_l_N1() -> tuple[bool, list[str]]:
    """N_1^2 = 1: no fixed part unless Delta^2 = 0 with the two listed shapes."""
    trace = []
    # 1 = N_1.Delta + N_1.T with N_1.Delta >= 1 (else Delta = 0): so
    # N_1.Delta = 1, N_1.T = 0, and either T^2 = 0 (no fixed part) or
    # T^2 = -1, Delta.T = 1, Delta^2 = 0.
    shapes = []
    for t2 in (0, -1):
        dt = -t2
        d2 = 1 - dt
        if d2 < 0:
            continue
        shapes.append((d2, dt, t2))
    trace.append(f"(Delta^2, Delta.T, T^2) in {shapes}")
    ok = shapes == [(1, 0, 0), (0, 1, -1)]
    trace.append("T^2 = -1 branch: N.Delta = 1 gives N = N_1 + Delta;"
                 " N.Delta = 2 gives N_1 = Delta + Z_i (reducible cycle)")
    return ok, trace


# -- case (ii) -----------------------------------------------------------------


def elim_t_ii() -> Elimination:
    """The elliptic pencil |M'| traps six (-3)-curves and l - 1 components of B_0."""
    # h_1 + 2 h_2 = 6 + l with h_2 = 4 forces h_1 = l - 2 >= 0, so l >= 2.
    ell_min = 2
    lhs = LinearForm(18 - 6, 6)  # 6 curves F'/H' (M' meets one q) + 6(l-1)
    rhs = LinearForm(15, 3)  # delta = e(Y) = 15 + 3l for the elliptic pencil
    survivors = [ell for ell in range(ell_min, 12) if lhs(ell) <= rhs(ell)]
    ok = not survivors and lhs.coef > rhs.coef
    return Elimination(
        "t.ii", str(lhs), str(rhs),
        "contradiction" if ok else "survives",
        ("R_0 lies in the fixed part of |2K_S|: h_1 = l - 2 >= 0 forces l >= 2",
         f"six trapped F'/H' curves and l-1 trapped (-6)-components: {lhs} <= {rhs}",
         f"forces l <= 1, against l >= {ell_min}"),
    )


# -- ruled endgame (case iii, n = 3l, l = 1) ------------------------------------


def elim_t_no1rul() -> Elimination:
    """n = 3, l = 1, rational pencil |N_3|: both cycle structures trap 15 > 13."""
    ell = 1
    delta_val = 12 + 2 + 3 * ell - 4
    irred = 3 * 5  # F', H', and the three E'-curves met by the cycles
    red = 3 + 3 + 3 + 6  # F', H', one E'_k, and B_0
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

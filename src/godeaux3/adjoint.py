"""The adjoint ladder N -> N_1 -> N_2 -> N_3 -> N_4 of the invariant pencil.

Numerical tables for the successive adjoint systems, bounds on the counts
of contracted (-1)-cycles, and verification of the displayed
linear-equivalence ladders as exact identities in explicit blown-up lattices.
"""

from __future__ import annotations

from typing import NamedTuple

from .cover import RamificationData, quotient_k2
from .lattice import DivisorClass, IntersectionLattice, ParityError, arithmetic_genus


class AdjointRow(NamedTuple):
    index: int
    ni2: int
    nik: int
    pa: int
    prev_dot: int


def ladder_top(r0k: int) -> tuple[int, int]:
    """(N^2, N.K_Y) for the invariant class N at the top of the ladder."""
    return 3, 1 - 2 * r0k


def adjoint_pairing(x_ni: int, x_k: int, x_contracted: int) -> int:
    """X.N_{i+1} = X.N_i + X.K - X.(G' + the cycles contracted at level i)."""
    return x_ni + x_k - x_contracted


def adjoint_step(ni2: int, nik: int, ky2: int, m: int) -> tuple[int, int, int]:
    """(N_i.N_{i+1}, N_{i+1}^2, N_{i+1}.K) for N_{i+1} = N_i + K_Y - (G' + cycles).

    The m contracted curves are disjoint (-1)-curves, each with C.K = -1, that
    miss N_i and N_{i+1}: so N_{i+1}^2 = N_i^2 + 2 N_i.K + K^2 + m.
    """
    prev_dot = adjoint_pairing(ni2, nik, 0)
    nik = adjoint_pairing(nik, ky2, -m)
    return prev_dot, prev_dot + nik, nik


def adjoint_table(r0k: int, ky2: int, h2: int, counts: tuple[int, ...]) -> list[AdjointRow]:
    """Numerical data of N_1, ..., N_len(counts) as functions of the raw case invariants,
    by ``adjoint_step`` with m_i = h_2 + n + n' + ... curves contracted at level i."""
    if any(count < 0 for count in counts):
        raise ValueError("cycle counts are nonnegative")
    ni2, nik = ladder_top(r0k)
    m = h2
    rows = []
    for index, count in enumerate(counts, start=1):
        m += count
        prev_dot, ni2, nik = adjoint_step(ni2, nik, ky2, m)
        if (ni2 + nik) % 2:
            raise ParityError(f"N_{index}^2 + N_{index}.K = {ni2 + nik} is odd")
        rows.append(AdjointRow(index, ni2, nik, 1 + (ni2 + nik) // 2, prev_dot))
    return rows


def z_lower_bound(r0k: int, r0sq: int, h2: int) -> int:
    """Lower bound 35/6 R_0.K - 3/2 R_0^2 - (10 + 2 h_2)/3 for the count n of
    contracted (-1)-cycles orthogonal to N; raises where it is not an integer."""
    six = 35 * r0k - 9 * r0sq - 20 - 4 * h2
    if six % 6:
        raise ValueError(f"the cycle-count bound {six}/6 is not an integer")
    return six // 6


def restriction_dim(ell: int, n: int) -> int:
    """h^0 of N restricted to N_1 in the pencil case: 2 + 3 ell - n."""
    return 2 + 3 * ell - n


def n_range(ell: int) -> tuple[int, int]:
    """Admissible range for n in the pencil case: max(0, 3 ell - 4) <= n <= 3 ell.

    The upper bound comes from restriction_dim >= 2 (the pencil restricts
    injectively), the lower one from N_1^2 = 4 - 3 ell + n >= 0.
    """
    return max(0, 3 * ell - 4), 3 * ell


# -- ladder identities --------------------------------------------------------


class LadderReport:
    """``counts`` holds the cycles per level, n first and the forced last count
    last; ``forced`` names n' and the last count.  It is ``ok`` with no failure line."""

    __slots__ = ("branch", "counts", "forced", "failures")

    def __init__(self, branch: str, counts: tuple[int, ...] = ()) -> None:
        self.branch, self.counts = branch, counts
        self.forced: dict[str, int] = {}
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


def level_symbol(letter: str, primes: int) -> str:
    """The naming rule: the cycles of level k, contracted from the k-th adjoint
    step on, carry k - 1 primes (Z, Z', Z'', ...), and so does their count (n, n', ...)."""
    return letter + "'" * primes


def cycle_names(counts: tuple[int, ...]) -> list[list[str]]:
    """Per level, its cycles: level 1 holds Z1..Zn, a later level numbers its
    cycles only when it holds more than one."""
    return [[level_symbol("Z", primes) + (str(i) if count > 1 or not primes else "")
             for i in range(1, count + 1)] for primes, count in enumerate(counts)]


_BRANCH_DATA = {
    # branch id: n - 3 ell offset, the counts n', ... fixed before the deepest
    # adjoint vanishes, and the ladder rows: the coefficients of G', K and, by
    # level symbol, of each cycle of that level
    "s.3l": {
        "offset": 0,
        # (N_1 - N_2)^2 = n' - 1 <= 0, and n' = 1 would make K_Y effective; the
        # pencil branch takes n'' = 1
        "given": (0, 1),
        "rows": {
            "N3": {"G": 1, "Z": 1, "Z''": 1, "Z'''": 1, "K": -1},
            "N2": {"G": 2, "Z": 2, "Z''": 2, "Z'''": 1, "K": -2},
            "N1": {"G": 3, "Z": 3, "Z''": 2, "Z'''": 1, "K": -3},
            "N": {"G": 4, "Z": 4, "Z''": 2, "Z'''": 1, "K": -4},
            "2B0+E": {"G": 7, "Z": 4, "Z''": 2, "Z'''": 1, "K": -7},
        },
    },
    "s.3l-1": {
        "offset": -1,
        "given": (2,),
        "rows": {
            "N2": {"G": 1, "Z": 1, "Z'": 1, "Z''": 1, "K": -1},
            "N1": {"G": 2, "Z": 2, "Z'": 2, "Z''": 1, "K": -2},
            "N": {"G": 3, "Z": 3, "Z'": 2, "Z''": 1, "K": -3},
            "2B0+E": {"G": 6, "Z": 3, "Z'": 2, "Z''": 1, "K": -6},
        },
    },
    "s.3l-2": {
        "offset": -2,
        "given": (),
        "rows": {
            "N1": {"G": 1, "Z": 1, "Z'": 1, "K": -1},
            "N": {"G": 2, "Z": 2, "Z'": 1, "K": -2},
            "2B0+E": {"G": 5, "Z": 2, "Z'": 1, "K": -5},
        },
    },
}


def ladder_counts(branch: str, ell: int) -> tuple[int, ...]:
    """The cycles per level of ``branch``'s ladder at ``ell``: n = 3 ell + offset,
    the given counts, then the last count, which the vanishing of the deepest
    adjoint forces.  N_last^2 has slope 1 in that count, so it is -N_last^2
    evaluated with it set to 0.  A negative count ends the tuple early.
    """
    data = _BRANCH_DATA[branch]
    counts = (3 * ell + data["offset"], *data["given"])
    if min(counts) < 0:
        return counts
    rows = adjoint_table(0, quotient_k2(RamificationData(0, ell, 1)), 1, (*counts, 0))
    return (*counts, -rows[-1].ni2)


def verify_ladder_identity(branch: str, ell: int = 1) -> LadderReport:
    """Check every displayed ladder row of the given branch as a lattice identity.

    Builds a concrete model, defines N by the requirement that the deepest
    adjoint vanishes, and verifies that the chain N_{i+1} = N_i + K - (contracted)
    reproduces each displayed row, starts at (N^2, N.K) = (3, 1) and agrees
    level by level with the numerical table at the forced cycle counts.
    """
    counts = ladder_counts(branch, ell)
    report = LadderReport(branch, counts)
    fail = report.failures.append
    for primes, count in enumerate(counts):
        if count < 0:
            fail(f"{level_symbol('n', primes)} = {count} < 0 is not realizable")
    # the rational model: the plane blown up at 11 + 3 ell points, rank 12 + 3 ell
    # and K^2 = -2 - 3 ell; G' is E_1, the cycles follow level by level and the
    # remaining points are anonymous
    points = 11 + 3 * ell
    if report.ok and sum(counts) >= points:
        fail(f"G' and {sum(counts)} cycles need more than the model's {points} points")
    if not report.ok:
        return report
    report.forced = {"n'": counts[1], level_symbol("n", len(counts) - 1): counts[-1]}
    lat = IntersectionLattice.plane_blow_up(points)
    k = lat.k
    # per symbol, the (position, coefficient) pairs of its class: K, G' = E_1, and
    # the cycles of each level, which follow level by level
    span = {"K": list(enumerate(lat.canonical)), "G": [(1, 1)]}
    start = 2
    for primes, count in enumerate(counts):
        span[level_symbol("Z", primes)] = [(i, 1) for i in range(start, start + count)]
        start += count
    rows = _BRANCH_DATA[branch]["rows"]

    def exceptional(m: int) -> DivisorClass:
        """E_1 + ... + E_m: G' and the first m - 1 cycles."""
        return lat.divisor((0,) + (1,) * m + (0,) * (points - m))

    def row_class(label: str) -> DivisorClass:
        """The displayed row ``label`` as one coefficient vector."""
        coeffs = [0] * lat.rank
        for sym, coef in rows[label].items():
            if sym not in span:
                fail(f"{label}: {sym} is no level of the ladder")
            for i, c in span.get(sym, ()):
                coeffs[i] += coef * c
        return lat.divisor(coeffs)

    def check(label: str, lhs: DivisorClass) -> None:
        if lhs.coeffs != row_class(label).coeffs:
            fail(f"{label}: ladder row fails as a lattice identity")

    # invariants of N in the model
    n_class = row_class("N")
    top = (n_class.square, n_class.dot(k))
    if top != ladder_top(0):
        fail(f"(N^2, N.K) = {top} != {ladder_top(0)}")

    # walk the adjoint chain: G' and the cycles of level 1 are contracted from
    # the first step on, those of level j from the j-th, down to the vanishing level
    chain = [n_class]
    for level in range(1, len(counts) + 1):
        chain.append(chain[-1] + k - exceptional(1 + sum(counts[:level])))
        if f"N{level}" in rows:
            check(f"N{level}", chain[-1])
    if not chain[-1].is_zero():
        fail(f"N{len(chain) - 1} does not vanish in the model")

    check("2B0+E", n_class - 3 * k + 3 * exceptional(1))

    # every level of the chain, down to the vanishing one, meets N nonnegatively
    # and agrees with the table at the forced counts
    table = adjoint_table(0, k.square, 1, counts)
    for row, prev, cls in zip(table, chain, chain[1:]):
        if cls.dot(n_class) < 0:
            fail(f"N{row.index}.N < 0")
        got = (cls.square, cls.dot(k), arithmetic_genus(cls), prev.dot(cls))
        want = (row.ni2, row.nik, row.pa, row.prev_dot)
        if got != want:
            fail(f"N{row.index}: model data {got} vs table {want}")
    return report


def n_prime_one_is_contradiction(ell: int = 1) -> bool:
    """In the deepest branch n' = 1 would force N_1 = N_2, i.e. K effective.

    Verified as arithmetic: (N_1 - N_2)^2 = n' - 1, so n' <= 1, and equality
    makes K_Y numerically effective against the rationality of Y.
    """
    n = 3 * ell
    ky2 = quotient_k2(RamificationData(0, ell, 1))
    n1, n2 = adjoint_table(0, ky2, 1, (n, 1))
    gap = n1.ni2 + n2.ni2 - 2 * n2.prev_dot
    return gap == 0

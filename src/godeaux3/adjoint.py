"""The adjoint ladder N -> N_1 -> N_2 -> N_3 -> N_4 of the invariant pencil.

Numerical tables for the successive adjoint systems, bounds on the counts
of contracted (-1)-cycles, and verification of the displayed
linear-equivalence ladders as exact identities in explicit blown-up lattices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cover import RamificationData, quotient_k2
from .lattice import DivisorClass, IntersectionLattice, ParityError, arithmetic_genus


class AdjointRow(NamedTuple):
    index: int
    ni2: int
    nik: int
    pa: int
    prev_dot: int


class CycleCounts:
    __slots__ = ("n", "nprime", "nsecond", "nthird")

    def __init__(self, n: int, nprime: int = 0, nsecond: int = 0, nthird: int = 0) -> None:
        if min(n, nprime, nsecond, nthird) < 0:
            raise ValueError("cycle counts are nonnegative")
        self.n, self.nprime, self.nsecond, self.nthird = n, nprime, nsecond, nthird


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


def adjoint_table(r0k: int, ky2: int, h2: int, counts: CycleCounts) -> list[AdjointRow]:
    """Numerical data of N_1, ..., N_4 as functions of the raw case invariants,
    by ``adjoint_step`` with m_i = h_2 + n + n' + ... curves contracted at level i."""
    ni2, nik = ladder_top(r0k)
    m = h2
    rows = []
    levels = (counts.n, counts.nprime, counts.nsecond, counts.nthird)
    for index, count in enumerate(levels, start=1):
        m += count
        prev_dot, ni2, nik = adjoint_step(ni2, nik, ky2, m)
        if (ni2 + nik) % 2:
            raise ParityError(f"N_{index}^2 + N_{index}.K = {ni2 + nik} is odd")
        rows.append(AdjointRow(index, ni2, nik, 1 + (ni2 + nik) // 2, prev_dot))
    return rows


def z_lower_bound(r0k: int, r0sq: int, h2: int) -> Fraction:
    """Lower bound for the count n of contracted (-1)-cycles orthogonal to N."""
    return Fraction(35, 6) * r0k - Fraction(3, 2) * r0sq - Fraction(10 + 2 * h2, 3)


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
    __slots__ = ("branch", "ok", "forced", "failures", "notes")

    def __init__(self, branch: str, ok: bool) -> None:
        self.branch, self.ok = branch, ok
        self.forced: dict[str, int] = {}
        self.failures: list[str] = []
        self.notes: list[str] = []


class LadderModel(NamedTuple):
    """Concrete blown-up lattice with classes assigned to every ladder symbol."""

    lattice: IntersectionLattice
    classes: dict[str, DivisorClass]

    def cls(self, name: str) -> DivisorClass:
        try:
            return self.classes[name]
        except KeyError:
            raise KeyError(f"unassigned symbol {name}") from None


def _pencil_model(ell: int, cycle_names: list[str]) -> LadderModel:
    """Rational model for the pencil case: rank 12 + 3 ell, K^2 = -2 - 3 ell.

    The contracted cycles (and G') are modelled as disjoint exceptional
    classes; the remaining points are anonymous.
    """
    points = 11 + 3 * ell
    if len(cycle_names) + 1 > points:
        raise ValueError("not enough rank for the requested cycles")
    lat = IntersectionLattice.plane_blow_up(points, name=f"pencil-model-l{ell}")
    classes: dict[str, DivisorClass] = {"K": lat.k}
    classes["G"] = lat.basis_class("E1")
    for i, name in enumerate(cycle_names, start=2):
        classes[name] = lat.basis_class(f"E{i}")
    return LadderModel(lat, classes)


_BRANCH_DATA = {
    # branch id: n - 3 ell offset, cycle symbols beyond the Z_i, the counts
    # n', ... fixed before the deepest adjoint vanishes, ladder rows
    "s.3l": {
        "offset": 0,
        "extra": ["Z''", "Z'''"],
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
        "extra": ["Z'1", "Z'2", "Z''"],
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
        "extra": ["Z'1", "Z'2", "Z'3", "Z'4", "Z'5"],
        "given": (),
        "rows": {
            "N1": {"G": 1, "Z": 1, "Z'": 1, "K": -1},
            "N": {"G": 2, "Z": 2, "Z'": 1, "K": -2},
            "2B0+E": {"G": 5, "Z": 2, "Z'": 1, "K": -5},
        },
    },
}


def _combine(model: LadderModel, spec: dict[str, int], z_names: list[str],
             zp_names: list[str]) -> DivisorClass:
    acc = 0 * model.cls("K")
    for sym, coef in spec.items():
        if sym == "Z":
            for name in z_names:
                acc = acc + coef * model.cls(name)
        elif sym == "Z'":
            for name in zp_names:
                acc = acc + coef * model.cls(name)
        else:
            acc = acc + coef * model.cls(sym)
    return acc


def verify_ladder_identity(branch: str, ell: int = 1) -> LadderReport:
    """Check every displayed ladder row of the given branch as a lattice identity.

    Builds a concrete model, defines N by the requirement that the deepest
    adjoint vanishes, and verifies that the chain N_{i+1} = N_i + K - (contracted)
    reproduces each displayed row, starts at (N^2, N.K) = (3, 1) and agrees
    level by level with the numerical table at the forced cycle counts.
    """
    data = _BRANCH_DATA[branch]
    n = 3 * ell + data["offset"]
    report = LadderReport(branch, ok=True)
    if n < 0:
        report.ok = False
        report.failures.append(f"n = {n} < 0 is not realizable")
        return report
    z_names = [f"Z{i}" for i in range(1, n + 1)]
    extra = data["extra"]
    zp_names = [nm for nm in extra if nm.startswith("Z'") and not nm.startswith("Z''")]
    model = _pencil_model(ell, z_names + extra)
    rows = data["rows"]

    n_class = _combine(model, rows["N"], z_names, zp_names)
    model.classes["N"] = n_class

    def check(label: str, lhs: DivisorClass, rhs: DivisorClass) -> None:
        if lhs.coeffs != rhs.coeffs:
            report.ok = False
            report.failures.append(f"{label}: ladder row fails as a lattice identity")

    # invariants of N in the model
    top = (n_class.square, n_class.dot(model.lattice.k))
    if top != ladder_top(0):
        report.ok = False
        report.failures.append(f"(N^2, N.K) = {top} != {ladder_top(0)}")

    # walk the adjoint chain: G' and the Z_i are contracted from level 1 on, a
    # symbol with p primes from level p + 1, down to the vanishing level
    chain = [n_class]
    k = model.lattice.k
    for level in range(1, len(data["given"]) + 3):
        nxt = chain[-1] + k
        for name in ["G"] + z_names + [nm for nm in extra if nm.count("'") < level]:
            nxt = nxt - model.cls(name)
        chain.append(nxt)
        label = f"N{level}"
        if label in rows:
            check(label, nxt, _combine(model, rows[label], z_names, zp_names))
    if not chain[-1].is_zero():
        report.ok = False
        report.failures.append(f"N{len(chain) - 1} does not vanish in the model")

    two_b0_e = n_class - 3 * k + 3 * model.cls("G")
    check("2B0+E", two_b0_e, _combine(model, rows["2B0+E"], z_names, zp_names))

    for idx, cls in enumerate(chain[1:], start=1):
        if cls.dot(n_class) < 0:
            report.ok = False
            report.failures.append(f"N{idx}.N < 0")

    # every level of the chain, down to the vanishing one, against the table
    # at the forced counts
    report.forced = _forced_counts(branch, ell, n)
    counts = CycleCounts(n, *data["given"], list(report.forced.values())[-1])
    table = adjoint_table(0, model.lattice.k.square, 1, counts)
    agrees = True
    for idx in range(1, len(chain)):
        row = table[idx - 1]
        got = (chain[idx].square, chain[idx].dot(k), arithmetic_genus(chain[idx]),
               chain[idx - 1].dot(chain[idx]))
        want = (row.ni2, row.nik, row.pa, row.prev_dot)
        if got != want:
            agrees = report.ok = False
            report.failures.append(f"N{idx}: model data {got} vs table {want}")
    if agrees:
        report.notes.append("model chain agrees with the printed numerical table")
    report.notes.append(f"model rank {model.lattice.rank}, K^2 = {model.lattice.k.square}")
    return report


def _forced_counts(branch: str, ell: int, n: int) -> dict[str, int]:
    """Solve the vanishing of the deepest adjoint for the last cycle count.

    N_last^2 has slope 1 in the last count, so that count is -N_last^2
    evaluated with it set to 0.  Of the given counts only n' is reported.
    """
    given = _BRANCH_DATA[branch]["given"]
    ky2 = quotient_k2(RamificationData(0, ell, 1))
    rows = adjoint_table(0, ky2, 1, CycleCounts(n, *given))
    names = ("n'", "n''", "n'''")
    forced = dict(zip(names, given[:1]))
    forced[names[len(given)]] = -rows[len(given) + 1].ni2
    return forced


def n_prime_one_is_contradiction(ell: int = 1) -> bool:
    """In the deepest branch n' = 1 would force N_1 = N_2, i.e. K effective.

    Verified as arithmetic: (N_1 - N_2)^2 = n' - 1, so n' <= 1, and equality
    makes K_Y numerically effective against the rationality of Y.
    """
    n = 3 * ell
    ky2 = quotient_k2(RamificationData(0, ell, 1))
    rows = adjoint_table(0, ky2, 1, CycleCounts(n, nprime=1))
    n1, n2 = rows[0], rows[1]
    gap = n1.ni2 + n2.ni2 - 2 * n2.prev_dot
    return gap == 0

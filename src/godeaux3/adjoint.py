"""The adjoint ladder N -> N_1 -> N_2 -> N_3 -> N_4 of the invariant pencil.

Numerical tables for the successive adjoint systems, bounds on the counts
of contracted (-1)-cycles, the structural constraints on those cycles, and
verification of the displayed linear-equivalence ladders as exact identities
in explicit blown-up lattices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import DivisorClass, IntersectionLattice, arithmetic_genus


@dataclass(frozen=True)
class AdjointRow:
    index: int
    ni2: int
    nik: int
    pa: int
    prev_dot: int

    def consistent(self) -> bool:
        return 2 * self.pa == 2 + self.ni2 + self.nik


@dataclass(frozen=True)
class CycleCounts:
    n: int
    nprime: int = 0
    nsecond: int = 0
    nthird: int = 0

    def __post_init__(self) -> None:
        if min(self.n, self.nprime, self.nsecond, self.nthird) < 0:
            raise ValueError("cycle counts are nonnegative")


def adjoint_table(r0k: int, ky2: int, h2: int, counts: CycleCounts) -> list[AdjointRow]:
    """Numerical data of N_1, N_2, N_3 as functions of the raw case invariants."""
    n, np_, ns = counts.n, counts.nprime, counts.nsecond
    rows = [
        AdjointRow(
            1,
            5 - 4 * r0k + ky2 + n + h2,
            1 - 2 * r0k + ky2 + n + h2,
            4 - 3 * r0k + ky2 + n + h2,
            4 - 2 * r0k,
        ),
        AdjointRow(
            2,
            7 - 8 * r0k + 4 * ky2 + 4 * n + 4 * h2 + np_,
            1 - 2 * r0k + 2 * ky2 + 2 * n + 2 * h2 + np_,
            5 - 5 * r0k + 3 * ky2 + 3 * n + 3 * h2 + np_,
            6 - 6 * r0k + 2 * ky2 + 2 * n + 2 * h2,
        ),
        AdjointRow(
            3,
            9 - 12 * r0k + 9 * ky2 + 9 * h2 + 9 * n + 4 * np_ + ns,
            1 - 2 * r0k + 3 * ky2 + 3 * h2 + 3 * n + 2 * np_ + ns,
            6 - 7 * r0k + 6 * ky2 + 6 * h2 + 6 * n + 3 * np_ + ns,
            8 - 10 * r0k + 6 * ky2 + 6 * h2 + 6 * n + 2 * np_,
        ),
    ]
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


# -- structure of the contracted cycles --------------------------------------

_FORBIDDEN_IN_CYCLES = ("G", "F", "H")


@dataclass(frozen=True)
class Cycle:
    """A formal (-1)-cycle: named components with positive multiplicities."""

    components: tuple[tuple[str, int], ...]

    def is_irreducible(self) -> bool:
        return len(self.components) == 1 and self.components[0][1] == 1


def _kind(name: str) -> str:
    if name.startswith("Z"):
        return "Z"
    if name.startswith("C"):
        return "C"
    return name[0]


def cycle_structure_check(config: list[Cycle],
                          intersections: dict[tuple[str, str], int] | None = None,
                          ) -> tuple[bool, str]:
    """Accept a cycle configuration only in the shapes the ladder allows.

    No G/F/H component may appear in a cycle; no cycle contains two distinct
    E-components; every irreducible cycle C has C.B_0 = C.E' = 1 (read from
    ``intersections`` when given); a reducible cycle forces n >= 3, and for
    n = 3 only the two catalogued shapes occur.
    """
    inter = intersections or {}
    n = len(config)
    for cyc in config:
        for name, _ in cyc.components:
            if _kind(name) in _FORBIDDEN_IN_CYCLES:
                return False, f"component {name} may not lie in a contracted cycle"
        e_names = {name for name, _ in cyc.components if _kind(name) == "E"}
        if len(e_names) >= 2:
            return False, "a cycle may contain at most one E-component"
    for cyc in config:
        if cyc.is_irreducible():
            name = cyc.components[0][0]
            for other, expected in (("B0", 1), ("E", 1)):
                got = inter.get((name, other))
                if got is not None and got != expected:
                    return False, f"{name}.{other} = {got}, expected {expected}"
    reducible = [c for c in config if not c.is_irreducible()]
    if reducible:
        if n < 3:
            return False, "a reducible cycle forces n >= 3"
        if n == 3:
            if not _matches_red_shape(config):
                return False, "n = 3 reducible configuration outside the two allowed shapes"
    return True, ""


def _matches_red_shape(config: list[Cycle]) -> bool:
    irred = [c for c in config if c.is_irreducible()]
    red = [c for c in config if not c.is_irreducible()]
    z_names = sorted({c.components[0][0] for c in irred if _kind(c.components[0][0]) == "Z"})
    # shape 1: Z_1, Z_2 irreducible and Z_3 = Z_1 + Z_2 + E_k
    if len(irred) == 2 and len(red) == 1 and len(z_names) == 2:
        mults = dict(red[0].components)
        e_parts = [nm for nm in mults if _kind(nm) == "E"]
        if (len(e_parts) == 1 and all(mults.get(z, 0) == 1 for z in z_names)
                and mults[e_parts[0]] == 1 and len(mults) == 3):
            return True
    # shape 2: Z_1 irreducible, Z_2 = Z_1 + C, Z_3 = 2 Z_1 + C + E_k
    if len(irred) == 1 and len(red) == 2 and len(z_names) == 1:
        z = z_names[0]
        two = sorted(red, key=lambda c: dict(c.components).get(z, 0))
        m1, m2 = dict(two[0].components), dict(two[1].components)
        c_parts = [nm for nm in m1 if _kind(nm) == "C"]
        e_parts = [nm for nm in m2 if _kind(nm) == "E"]
        if (len(c_parts) == 1 and m1.get(z, 0) == 1 and len(m1) == 2
                and len(e_parts) == 1 and m2.get(z, 0) == 2
                and m2.get(c_parts[0], 0) == 1 and len(m2) == 3):
            return True
    return False


# -- ladder identities --------------------------------------------------------


@dataclass
class LadderReport:
    branch: str
    ok: bool
    forced: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class LadderModel:
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
    # branch id: (n - 3 ell offset, cycle symbols beyond the Z_i, ladder rows)
    "s.3l": {
        "offset": 0,
        "extra": ["Z''", "Z'''"],
        "zero_from": "N4",
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
        "zero_from": "N3",
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
        "zero_from": "N2",
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
    adjoint vanishes, and verifies the chain N_{i+1} = N_i + K - (contracted)
    reproduces each displayed row together with N^2 = 3, N.K = 1 and the
    forced cycle counts.
    """
    if branch not in _BRANCH_DATA:
        raise KeyError(branch)
    data = _BRANCH_DATA[branch]
    n = 3 * ell + data["offset"]
    report = LadderReport(branch, ok=True)
    if n < 0:
        report.ok = False
        report.failures.append(f"n = {n} < 0 is not realizable")
        return report
    z_names = [f"Z{i}" for i in range(1, n + 1)]
    extra = list(data["extra"])
    zp_names = [nm for nm in extra if nm.startswith("Z'") and not nm.startswith("Z''")]
    model = _pencil_model(ell, z_names + extra)
    rows = data["rows"]

    top = {"s.3l": "N", "s.3l-1": "N", "s.3l-2": "N"}[branch]
    n_class = _combine(model, rows[top], z_names, zp_names)
    model.classes["N"] = n_class

    def check(label: str, lhs: DivisorClass, rhs: DivisorClass) -> None:
        if lhs.coeffs != rhs.coeffs:
            report.ok = False
            report.failures.append(f"{label}: ladder row fails as a lattice identity")

    # invariants of N in the model
    if n_class.square != 3:
        report.ok = False
        report.failures.append(f"N^2 = {n_class.square} != 3")
    if n_class.dot(model.lattice.k) != 1:
        report.ok = False
        report.failures.append(f"N.K = {n_class.dot(model.lattice.k)} != 1")

    # walk the adjoint chain, contracting per level
    contracted_per_level = {
        "s.3l": [["G"] + z_names, ["G"] + z_names, ["G"] + z_names + ["Z''"],
                 ["G"] + z_names + ["Z''", "Z'''"]],
        "s.3l-1": [["G"] + z_names, ["G"] + z_names + zp_names,
                   ["G"] + z_names + zp_names + ["Z''"]],
        "s.3l-2": [["G"] + z_names, ["G"] + z_names + zp_names],
    }[branch]
    chain = [n_class]
    k = model.lattice.k
    for level, contracted in enumerate(contracted_per_level, start=1):
        nxt = chain[-1] + k
        for name in contracted:
            nxt = nxt - model.cls(name)
        chain.append(nxt)
        label = f"N{level}"
        if label in rows:
            check(label, nxt, _combine(model, rows[label], z_names, zp_names))
    if not chain[-1].is_zero():
        report.ok = False
        report.failures.append(f"{data['zero_from']} does not vanish in the model")

    two_b0_e = n_class - 3 * k + 3 * model.cls("G")
    check("2B0+E", two_b0_e, _combine(model, rows["2B0+E"], z_names, zp_names))

    # genus/parity sanity for every class in the chain
    for idx, cls in enumerate(chain):
        arithmetic_genus(cls)  # raises on parity violation
        if idx >= 1 and cls.dot(n_class) < 0:
            report.ok = False
            report.failures.append(f"N{idx}.N < 0")

    # the printed numerical table must agree with the model arithmetic
    counts = {
        "s.3l": CycleCounts(n, 0, 1, 1),
        "s.3l-1": CycleCounts(n, 2, 1),
        "s.3l-2": CycleCounts(n, 5),
    }[branch]
    table = adjoint_table(0, model.lattice.k.square, 1, counts)
    for idx in range(1, min(len(chain), 4)):
        row = table[idx - 1]
        got = (chain[idx].square, chain[idx].dot(k), arithmetic_genus(chain[idx]),
               chain[idx - 1].dot(chain[idx]))
        want = (row.ni2, row.nik, row.pa, row.prev_dot)
        if got != want:
            report.ok = False
            report.failures.append(f"N{idx}: model data {got} vs table {want}")
    report.notes.append("model chain agrees with the printed numerical table")

    report.forced = _forced_counts(branch, ell, n)
    report.notes.append(f"model rank {model.lattice.rank}, K^2 = {model.lattice.k.square}")
    return report


def _forced_counts(branch: str, ell: int, n: int) -> dict[str, int]:
    """Solve the vanishing of the deepest adjoint for the last cycle count."""
    ky2 = -2 - 3 * ell
    h2 = 1
    forced: dict[str, int] = {}
    if branch == "s.3l-2":
        # N_2 = 0 forces N_2^2 = 0, i.e. n' = N_2^2 - 3 + 12 ell - 4 n = 5
        forced["n'"] = -(7 + 4 * ky2 + 4 * n + 4 * h2)
    elif branch == "s.3l-1":
        forced["n'"] = 2
        # N_3 = 0 forces N_3^2 = 0, which solves to n'' = 1
        forced["n''"] = -(9 + 9 * ky2 + 9 * h2 + 9 * n + 4 * 2)
    elif branch == "s.3l":
        # (N_1 - N_2)^2 = n' - 1 <= 0, and n' = 1 would make K_Y effective
        forced["n'"] = 0
        n_second = 1  # N_3^2 = n'' with the pencil branch taking n'' = 1
        n3 = AdjointRow(3, 9 + 9 * ky2 + 9 * h2 + 9 * n + n_second,
                        1 + 3 * ky2 + 3 * h2 + 3 * n + n_second, 0, 0)
        # N_4 = 0 forces N_4^2 = N_3^2 + K^2 + 2 N_3.K + 1 + n + n' + n'' + n''' = 0
        forced["n'''"] = -(n3.ni2 + ky2 + 2 * n3.nik + 1 + n + 0 + n_second)
    return forced


def n_prime_one_is_contradiction(ell: int = 1) -> bool:
    """In the deepest branch n' = 1 would force N_1 = N_2, i.e. K effective.

    Verified as arithmetic: (N_1 - N_2)^2 = n' - 1, so n' <= 1, and equality
    makes K_Y numerically effective against the rationality of Y.
    """
    n = 3 * ell
    ky2 = -2 - 3 * ell
    rows = adjoint_table(0, ky2, 1, CycleCounts(n, nprime=1))
    n1, n2 = rows[0], rows[1]
    gap = n1.ni2 + n2.ni2 - 2 * n2.prev_dot
    return gap == 0

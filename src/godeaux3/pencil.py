"""Enumeration of the possible shapes of the invariant tricanonical pencil.

The moving part A of the invariant pencil, its exceptional content D over
the blown-up fixed points, and the induced pencil |A'| on the quotient are
described by a small catalog of "drop atoms" (how A passes through a fixed
point) plus arithmetic constraints.  An exhaustive filter over atom
multisets reproduces the printed case lists verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from math import isqrt
from typing import NamedTuple

from .cover import KS2
from .lattice import canonical_degree

# Intersection numbers of the exceptional configuration over an A_2-type
# fixed point q (curves F, G, H) and over a triple-point type fixed point
# (curve E), on the resolved cover: F^2 = H^2 = E^2 = EXC_SELF_INT = -1,
# G^2 = -3, F.G = G.H = 1, F.H = 0.
EXC_SELF_INT = -1
_Q_GRAM = {
    ("F", "F"): EXC_SELF_INT,
    ("G", "G"): -3,
    ("H", "H"): EXC_SELF_INT,
    ("F", "G"): 1,
    ("G", "H"): 1,
    ("F", "H"): 0,
}


def _q_dot(d1: dict[str, int], d2: dict[str, int]) -> int:
    total = 0
    for a, x in d1.items():
        for b, y in d2.items():
            key = (a, b) if (a, b) in _Q_GRAM else (b, a)
            total += x * y * _Q_GRAM[key]
    return total


class DropAtom(NamedTuple):
    """How A passes through an A_2-type fixed point q: its share of D over F, G, H."""

    d_contribution: tuple[tuple[str, int], ...]
    self_int_drop: int
    dg: int
    forces_phi_through_q: bool = False


def _q_atom(f: int, g: int, h: int) -> DropAtom:
    d = {"F": f, "G": g, "H": h}
    drop = -_q_dot(d, d)
    dg = _q_dot(d, {"G": 1})
    # Phi must pass through q whenever the F or H multiplicity of D is not
    # divisible by 3 (branch components pull back with multiplicity 3).
    forces = f % 3 != 0 or h % 3 != 0
    return DropAtom(tuple(sorted(d.items())), drop, dg, forces)


# The mirror (1, 1, 2) of the simple atom differs only by the F/H labels and
# gives the same rows, so it is not catalogued.
Q_SIMPLE = _q_atom(2, 1, 1)
Q_NODE = _q_atom(3, 2, 3)
Q_CUSP = _q_atom(3, 2, 2)
# These two drop 8 and 9, more than any A^2 option but 9 allows.
Q_DOUBLE_OTHER = _q_atom(4, 2, 2)
Q_TRIPLE = _q_atom(3, 3, 3)

Q_ATOMS = (Q_SIMPLE, Q_NODE, Q_CUSP, Q_DOUBLE_OTHER, Q_TRIPLE)


class SubsystemBranch(NamedTuple):
    """One branch of the moving-part/fixed-part split of the invariant pencil."""

    ak: int
    phik: int
    a2_options: tuple[int, ...]
    pa_phi_max: int | None  # None means Phi = 0


def subsystem_split() -> list[SubsystemBranch]:
    """The three possibilities for (A.K_S, Phi.K_S, A^2).

    Derived from 3 K_S^2 = 3 = A.K + Phi.K, the lower bound A.K >= 2, the
    index theorem against K_S, and the parity of A^2 + A.K.
    """
    branches = []
    for ak in (2, 3):
        phik = 3 * KS2 - ak
        # (ak.K - K^2.A)^2 <= 0 gives A^2 <= ak^2 / K^2.
        a2_cap = ak * ak // KS2
        evens = ak % 2 == 0  # A^2 + A.K even
        options = tuple(a2 for a2 in range(0, a2_cap + 1)
                        if (a2 % 2 == 0) == evens)
        if ak == 2:
            branches.append(SubsystemBranch(ak, phik, options, pa_phi_max=2))
        else:
            proper = tuple(a2 for a2 in options if a2 < a2_cap)
            branches.append(SubsystemBranch(ak, phik, proper, pa_phi_max=0))
            # A^2 = 9 forces equality in the index theorem, so A ~ 3K and Phi = 0.
            branches.append(SubsystemBranch(ak, phik, (a2_cap,), pa_phi_max=None))
    return branches


def ar0_upper(a2: int, phik: int) -> int:
    """0 <= A.R_0 <= A.Phi = 9 - A^2 - 3 Phi.K_S."""
    return 9 - a2 - 3 * phik


def genus_from_case(ak: int, ar0: int, dg: int, de: int, aprime2: int) -> int | None:
    """Genus of the quotient pencil member from the cover/blow-up bookkeeping.

    A.K_S - 2 A.R_0 - D.G + D.E = 6g - 6 - 3 A'^2; ``None`` where g is not an
    integer.  The caller rejects a negative genus.
    """
    six_g = ak - 2 * ar0 - dg + de + 6 + 3 * aprime2
    return None if six_g % 6 else six_g // 6


@dataclass(frozen=True)
class PencilCase:
    """One row of a printed pencil case list, and the package's one dataclass.

    The benchmark's tests call ``dataclasses.replace`` on a row, so making it a
    NamedTuple, which also drops the import of ``dataclasses``, waits for a
    change to the benchmark.
    """

    label: str
    a2: int
    ak: int  # A.K_S, from the moving/fixed branch that allows a2
    ar0: int
    g: int
    apk: int
    d: tuple[tuple[str, int], ...]
    aprime2: int

    def d_string(self) -> str:
        if not self.d:
            return "0"
        parts = []
        for comp, mult in self.d:
            parts.append(comp if mult == 1 else f"{mult}{comp}")
        return "+".join(parts)


def _p_multisets(budget: int):
    """Nonincreasing tuples of positive multiplicities with sum of squares = budget."""
    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for m in range(min(cap, isqrt(remaining)), 0, -1):
            yield from rec(remaining - m * m, m, prefix + (m,))
    yield from rec(budget, budget, ())


def _canonical_d(q_atoms: tuple[DropAtom, ...], p_mults: tuple[int, ...]):
    d: list[tuple[str, int]] = []
    for i, m in enumerate(p_mults, start=1):
        d.append((f"E{i}", m))
    for atom in q_atoms:
        for comp, mult in atom.d_contribution:
            d.append((comp, mult))
    return tuple(d)


def _candidate_cases(aprime2: int, h2: int, apply_orbit_filters: bool) -> list[PencilCase]:
    found: list[PencilCase] = []
    for branch in subsystem_split():
        phi_zero = branch.pa_phi_max is None
        for a2 in branch.a2_options:
            drop_needed = a2 - 3 * aprime2
            if drop_needed < 0:
                continue
            q_choices: list[tuple[DropAtom, ...]] = [()]
            for size in range(1, h2 + 1):
                q_choices += list(combinations_with_replacement(Q_ATOMS, size))
            for q_atoms in q_choices:
                q_drop = sum(a.self_int_drop for a in q_atoms)
                if q_drop > drop_needed:
                    continue
                for p_mults in _p_multisets(drop_needed - q_drop):
                    if phi_zero:
                        # every component of D other than G has multiplicity 0 mod 3
                        if any(m % 3 != 0 for m in p_mults):
                            continue
                        # so each is >= 3 and takes the whole drop of 9: A misses every q
                        if any(m % 3 != 0
                               for a in q_atoms
                               for comp, m in a.d_contribution if comp != "G"):
                            continue
                    dg = sum(a.dg for a in q_atoms)
                    if dg % 3 != 0:
                        continue
                    de = -sum(p_mults)
                    aphi = ar0_upper(a2, branch.phik)
                    # Orbit accounting on the intersection cycle A.Phi: each
                    # p-point atom with multiplicity m forces a fixed intersection
                    # point of local multiplicity m * (-m mod 3), which is 0 when
                    # 3 divides m; a q-atom whose F/H content is not divisible by 3
                    # forces Phi through q (at least 1), with unconstrained residue.
                    p_forced = sum(m * ((-m) % 3) for m in p_mults)
                    q_forced = sum(a.forces_phi_through_q for a in q_atoms)
                    if phi_zero:
                        ar0_values = [0]
                    else:
                        hi = aphi - p_forced - q_forced if apply_orbit_filters else aphi
                        ar0_values = list(range(0, hi + 1))
                        if apply_orbit_filters and not q_forced:
                            target = (aphi - p_forced) % 3
                            ar0_values = [v for v in ar0_values if v % 3 == target]
                    for ar0 in ar0_values:
                        g = genus_from_case(branch.ak, ar0, dg, de, aprime2)
                        if g is None or g < 0:
                            continue
                        found.append(PencilCase("", a2, branch.ak, ar0, g,
                                                canonical_degree(aprime2, g),
                                                _canonical_d(q_atoms, p_mults), aprime2))
    return found


def enumerate_pencil_cases(aprime2: int, h2: int = 1,
                           apply_orbit_filters: bool = True) -> list[PencilCase]:
    """All numerical shapes of the invariant pencil with the given A'^2.

    Exhaustive over the moving-part branches and drop-atom multisets, filtered
    by the mod-3 multiplicity constraints, the orbit bound on A.R_0 and
    integrality of the genus.  Results are sorted and labelled.
    """
    if aprime2 not in (0, 1, 2, 3):
        raise ValueError("A'^2 must be one of 0, 1, 2, 3")
    cases = _candidate_cases(aprime2, h2, apply_orbit_filters)
    cases.sort(key=lambda c: (c.a2, c.ar0, -c.g, c.d))
    labelled = []
    for idx, case in enumerate(cases):
        if aprime2 == 3:
            label = "N"
        else:
            label = f"{aprime2}{chr(ord('a') + idx)}"
        labelled.append(replace(case, label=label))
    return labelled


def pencil_case(label: str) -> PencilCase:
    """Look up a case by its label, e.g. ``"0g"`` or ``"N"``; raises KeyError otherwise."""
    aprime2 = {"0": 0, "1": 1, "2": 2, "N": 3}.get(label[:1])
    if aprime2 is not None:
        for case in enumerate_pencil_cases(aprime2):
            if case.label == label:
                return case
    raise KeyError(label)

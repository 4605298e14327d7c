"""Plane-curve bookkeeping: degrees, multiplicities, proximity, Cremona moves.

Curves are recorded by degree and multiplicities at a fixed list of (possibly
infinitely near) points.  Negative entries are allowed on rows flagged
virtual; they encode total transforms of contracted curves and are skipped by
genus and proximity checks.
"""

from __future__ import annotations

from collections.abc import Iterable
from graphlib import CycleError, TopologicalSorter
from itertools import combinations
from math import isqrt
from typing import NamedTuple


class PlaneError(Exception):
    pass


class PlaneCurve:
    __slots__ = ("name", "degree", "mults", "virtual")

    def __init__(self, name: str, degree: int, mults: tuple[int, ...],
                 virtual: bool = False) -> None:
        if degree < 0:
            raise PlaneError("negative degree")
        if not virtual and any(m < 0 for m in mults):
            raise PlaneError(f"{name}: negative multiplicity on a non-virtual row")
        self.name, self.degree, self.mults, self.virtual = name, degree, mults, virtual

    def self_int(self) -> int:
        return self.degree ** 2 - sum(m * m for m in self.mults)

    def dot(self, other: "PlaneCurve") -> int:
        if len(self.mults) != len(other.mults):
            raise PlaneError(f"{self.name}.{other.name}: rows over different point sets")
        return self.degree * other.degree - sum(a * b for a, b in zip(self.mults, other.mults))

    def genus(self) -> int:
        if self.virtual:
            raise PlaneError("genus undefined for virtual rows")
        d = self.degree
        return (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for m in self.mults)


class PointCluster:
    """Plane points with proximity relations.

    ``proximity`` lists (child, parent) pairs: the child is infinitely near,
    lying on the exceptional curve of the parent.
    """

    __slots__ = ("points", "proximity")

    def __init__(self, points: tuple[str, ...],
                 proximity: tuple[tuple[str, str], ...] = ()) -> None:
        self.points, self.proximity = points, proximity
        sorter = TopologicalSorter()
        for child, parent in proximity:
            if child not in points or parent not in points:
                raise PlaneError("proximity edge outside the cluster")
            sorter.add(child, parent)
        try:
            sorter.prepare()
        except CycleError:
            raise PlaneError("proximity relation has a cycle") from None

    def index(self, p: str) -> int:
        return self.points.index(p)

    def children(self, p: str) -> list[str]:
        return [ch for ch, par in self.proximity if par == p]

    def proximity_ok(self, curve: PlaneCurve) -> bool:
        """The proximity inequality at every point of the cluster."""
        return curve.virtual or all(
            proximity_holds(curve, self.index(p), map(self.index, self.children(p)))
            for p in self.points)


def proximity_holds(curve: PlaneCurve, parent: int, children: Iterable[int]) -> bool:
    """m_P >= sum of m_Q over the points Q proximate to P, for the multiplicities of
    ``curve`` at the point of index ``parent`` and at the points of index ``children``."""
    return curve.mults[parent] >= sum(curve.mults[q] for q in children)


class ConfigTable(NamedTuple):
    """A cluster together with tracked curve rows and expected invariants."""

    cluster: PointCluster
    rows: tuple[PlaneCurve, ...]
    weights: dict  # row name -> weight in the totals
    totals: tuple[int, ...]  # one weighted total per point, or () for none declared
    gram: dict  # (name, name) -> expected product

    def row(self, name: str) -> PlaneCurve:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def verify_config_table(table: ConfigTable) -> tuple[bool, list[str]]:
    """Check the lengths, unique row names, weighted column totals and declared products."""
    points = len(table.cluster.points)
    violations = [f"{r.name}: {len(r.mults)} multiplicities for {points} points"
                  for r in table.rows if len(r.mults) != points]
    if table.totals and len(table.totals) != points:
        violations.append(f"totals: {len(table.totals)} entries for {points} points")
    names = [r.name for r in table.rows]
    if len(set(names)) != len(names):
        repeated = sorted({n for i, n in enumerate(names) if n in names[:i]})
        violations.append(f"rows: names {repeated} are not unique")
    if violations:
        return False, violations
    for j, expected in enumerate(table.totals):
        got = sum(table.weights.get(r.name, 0) * r.mults[j] for r in table.rows)
        if got != expected:
            violations.append(
                f"column {table.cluster.points[j]}: weighted total {got} != {expected}")
    for (a, b), expected in sorted(table.gram.items()):
        violation = product_violation(a, b, table.row(a), table.row(b), expected)
        if violation:
            violations.append(violation)
    for r in table.rows:
        if not table.cluster.proximity_ok(r):
            violations.append(f"{r.name}: proximity inequality fails")
    return not violations, violations


def product_violation(a: str, b: str, ra: PlaneCurve, rb: PlaneCurve,
                      expected: int) -> str | None:
    """Check one declared product ``a.b`` of the rows ``ra`` and ``rb``.

    Returns the violation, or None when the product equals ``expected``.
    """
    got = ra.self_int() if a == b else ra.dot(rb)
    return None if got == expected else f"{a}.{b} = {got} != {expected}"


# Points blown up on the plane in the Del Pezzo endgame: the states of the
# Cremona orbit search and the genus-one pencil |-K| live on P^2 blown up at them.
DEL_PEZZO_POINTS = 8


# -- Cremona quadratic transforms ----------------------------------------------


def _transform_curve(curve: PlaneCurve, idxs: tuple[int, int, int]) -> PlaneCurve | None:
    """The image of ``curve`` under the quadratic transform based at the points of
    index ``idxs``: degree 2d - m_i - m_j - m_k, and d - m_j - m_k at the base point
    i.  None when the degree would be negative; a negative multiplicity makes the
    image virtual."""
    i, j, k = idxs
    m = curve.mults
    d = curve.degree
    new_d = 2 * d - m[i] - m[j] - m[k]
    if new_d < 0:
        return None
    new_m = list(m)
    new_m[i] = d - m[j] - m[k]
    new_m[j] = d - m[i] - m[k]
    new_m[k] = d - m[i] - m[j]
    virtual = curve.virtual or any(v < 0 for v in new_m)
    return PlaneCurve(curve.name, new_d, tuple(new_m), virtual)


def admissible_base(curves: list[PlaneCurve], cluster: PointCluster,
                    base: tuple[str, str, str]) -> tuple[bool, str]:
    """Admissibility of a base triple for a quadratic transform.

    Checked conditions: the three points are distinct; no line can contain all
    three (certified by a tracked curve whose multiplicities at the triple
    exceed its degree); no declared proximity between base points; for every
    point x of the triple the hypothesis "both other base points proximate to
    x" is refuted by some tracked curve.
    """
    if len(set(base)) != 3:
        return False, "base points must be distinct"
    idxs = tuple(cluster.index(p) for p in base)
    real = [c for c in curves if not c.virtual]
    if not any(sum(c.mults[i] for i in idxs) > c.degree for c in real):
        return False, "no certificate that the base triple is non-collinear"
    for child, parent in cluster.proximity:
        if child in base and parent in base:
            return False, f"{child} is proximate to {parent}"
    for x in base:
        others = [p for p in base if p != x]
        ix = cluster.index(x)
        refuted = any(not proximity_holds(c, ix, map(cluster.index, others)) for c in real)
        if not refuted:
            return False, f"cannot refute both base points proximate to {x}"
    return True, ""


def quadratic_transform(cluster: PointCluster, curves: list[PlaneCurve],
                        base: tuple[str, str, str]) -> list[PlaneCurve]:
    """Apply the quadratic transformation based at an admissible base triple.

    Each curve maps as ``_transform_curve`` says; all pairwise products,
    self-intersections and genera are preserved (asserted).
    """
    ok, why = admissible_base(curves, cluster, base)
    if not ok:
        raise PlaneError(f"inadmissible base triple: {why}")
    idxs = tuple(cluster.index(p) for p in base)
    new_curves = [_transform_curve(c, idxs) for c in curves]
    for old, new in zip(curves, new_curves):
        if new is None:
            raise PlaneError(f"{old.name}: transform would give negative degree")
        if old.self_int() != new.self_int():
            raise PlaneError(f"{old.name}: self-intersection changed")
        if not old.virtual and not new.virtual and old.genus() != new.genus():
            raise PlaneError(f"{old.name}: genus changed")
    for (a, new_a), (b, new_b) in combinations(zip(curves, new_curves), 2):
        if a.dot(b) != new_a.dot(new_b):
            raise PlaneError("pairwise intersection changed")
    return new_curves


# -- the homaloidal-type Diophantine systems ------------------------------------


def multiplicity_vectors(lin: int, sq: int, points: int) -> list[dict[int, int]]:
    """Every {j: s_j} with sum j s_j = lin, sum j^2 s_j = sq and sum s_j <= points,
    where s_j > 0 and the keys run downwards.

    Exhaustive: j^2 <= sq starts the multiplicities at isqrt(sq), and the Cauchy-Schwarz
    bound lin^2 <= points * sq prunes every partial vector.  Each level tries s_j = 0,
    then 1, 2, ..., so the list ascends in the pairs (j, s_j) from the top j down.
    """
    if lin < 0 or sq < 0:
        return []
    found, acc = [], {}

    def rec(j: int, lin: int, sq: int, points: int) -> None:
        if lin == 0:
            if sq == 0:
                found.append(dict(acc))
            return
        if j == 0 or lin * lin > points * sq:
            return
        jj = j * j
        rec(j - 1, lin, sq, points)
        for s in range(1, min(points, sq // jj, lin // j) + 1):
            acc[j] = s
            rec(j - 1, lin - s * j, sq - s * jj, points - s)
        acc.pop(j, None)

    rec(isqrt(sq), lin, sq, points)
    return found


def solve_multiplicity_system(c1: int, c2: int, max_points: int,
                              ) -> list[tuple[int, dict[int, int]]]:
    """All (d0, {s_j}) with 0 <= d0 <= 12, sum j^2 s_j = d0^2 - c1, sum j s_j = 3 d0 - c2,
    sum s_j <= max_points and s_j >= 0: by d0, then as ``multiplicity_vectors`` lists them.

    Since c1 >= 0, the multiplicities of degree d0 stay at most d0.
    """
    if c1 < 0 or c2 < 0:
        raise PlaneError("c1 and c2 must be nonnegative")
    return [(d0, s) for d0 in range(0, 13)
            for s in multiplicity_vectors(3 * d0 - c2, d0 * d0 - c1, max_points)]


def state_from_solution(d0: int, s: dict[int, int]) -> tuple:
    """Canonical state for the orbit search: degree plus sorted multiplicities."""
    mults = []
    for j, count in sorted(s.items(), reverse=True):
        mults.extend([j] * count)
    if len(mults) > DEL_PEZZO_POINTS:
        raise PlaneError("more points than available")
    mults += [0] * (DEL_PEZZO_POINTS - len(mults))
    return (d0, tuple(mults))


def _moves(state: tuple):
    """The quadratic moves out of an abstract (d; mults) state, one per multiplicity
    triple: images of its one curve at bases ``admissible_base`` accepts, where the
    image is a curve.  The certificate s > d makes every move lower the degree."""
    d, mults = state
    cluster = PointCluster(tuple(f"P{i + 1}" for i in range(len(mults))))
    curve = PlaneCurve("C", d, mults)
    seen_triples = set()
    for idxs in combinations(range(len(mults)), 3):
        triple = tuple(mults[i] for i in idxs)
        if triple in seen_triples:
            continue
        seen_triples.add(triple)
        ok, _ = admissible_base([curve], cluster, tuple(cluster.points[i] for i in idxs))
        image = _transform_curve(curve, idxs) if ok else None
        if image is not None and not image.virtual:
            yield triple, (image.degree, tuple(sorted(image.mults, reverse=True)))


def cremona_orbit_connect(solutions: list[tuple[int, dict[int, int]]]) -> dict:
    """Breadth-first search connecting all solutions by quadratic moves.

    Returns move chains from the lexicographically largest state to every
    other solution; raises when some solution is unreachable.  Each move is a
    quadratic transform, hence an involution, so the chains certify mutual
    reachability: the reverse chain applies the same transforms again.  Every
    move lowers the degree, so the search ends without a depth cap.
    """
    states = {state_from_solution(d0, s): (d0, s) for d0, s in solutions}
    start = max(states)
    frontier = [start]
    paths: dict[tuple, list] = {start: []}
    while frontier:
        nxt = []
        for state in frontier:
            for triple, new_state in _moves(state):
                if new_state not in paths:
                    paths[new_state] = paths[state] + [(state, triple, new_state)]
                    nxt.append(new_state)
        frontier = nxt
    missing = [s for s in states if s not in paths]
    if missing:
        raise PlaneError(f"orbit search exhausted; unreachable: {missing}")
    return {state: paths[state] for state in states}

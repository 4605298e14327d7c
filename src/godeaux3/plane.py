"""Plane-curve bookkeeping: degrees, multiplicities, proximity, Cremona moves.

Curves are recorded by degree and multiplicities at a fixed list of (possibly
infinitely near) points.  Negative entries are allowed on rows flagged
virtual; they encode total transforms of contracted curves and are skipped by
genus and proximity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


class PlaneError(Exception):
    pass


@dataclass(frozen=True)
class PlaneCurve:
    name: str
    degree: int
    mults: tuple[int, ...]
    virtual: bool = False

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise PlaneError("negative degree")
        if not self.virtual and any(m < 0 for m in self.mults):
            raise PlaneError(f"{self.name}: negative multiplicity on a non-virtual row")

    def self_int(self) -> int:
        return self.degree ** 2 - sum(m * m for m in self.mults)

    def dot(self, other: "PlaneCurve") -> int:
        return self.degree * other.degree - sum(a * b for a, b in zip(self.mults, other.mults))

    def genus(self) -> int:
        if self.virtual:
            raise PlaneError("genus undefined for virtual rows")
        d = self.degree
        return (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for m in self.mults)

    def to_json(self) -> dict:
        return {"name": self.name, "degree": self.degree, "mults": list(self.mults),
                "virtual": self.virtual}


@dataclass(frozen=True)
class PointCluster:
    """Plane points with proximity relations and planar flags.

    ``proximity`` lists (child, parent) pairs: the child is infinitely near,
    lying on the exceptional curve of the parent.  ``planar`` marks points
    known to lie on the plane itself.
    """

    points: tuple[str, ...]
    proximity: tuple[tuple[str, str], ...] = ()
    planar: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        index = {p: i for i, p in enumerate(self.points)}
        for child, parent in self.proximity:
            if child not in index or parent not in index:
                raise PlaneError("proximity edge outside the cluster")
        state: dict[str, int] = {}

        def visit(p: str, stack: tuple[str, ...]) -> None:
            if p in stack:
                raise PlaneError("proximity relation has a cycle")
            if state.get(p):
                return
            for ch, par in self.proximity:
                if ch == p:
                    visit(par, stack + (p,))
            state[p] = 1

        for p in self.points:
            visit(p, ())
        for p in self.planar:
            if any(ch == p for ch, _ in self.proximity):
                raise PlaneError(f"planar point {p} cannot be proximate to another point")

    def index(self, p: str) -> int:
        return self.points.index(p)

    def parents(self, p: str) -> list[str]:
        return [par for ch, par in self.proximity if ch == p]

    def children(self, p: str) -> list[str]:
        return [ch for ch, par in self.proximity if par == p]

    def proximity_ok(self, curve: PlaneCurve) -> bool:
        """m_P >= sum of multiplicities at the points proximate to P."""
        if curve.virtual:
            return True
        for p in self.points:
            kids = self.children(p)
            if not kids:
                continue
            if curve.mults[self.index(p)] < sum(curve.mults[self.index(k)] for k in kids):
                return False
        return True

    def to_json(self) -> dict:
        return {"points": list(self.points),
                "proximity": [list(e) for e in self.proximity],
                "planar": list(self.planar)}


@dataclass(frozen=True)
class ConfigTable:
    """A cluster together with tracked curve rows and expected invariants."""

    cluster: PointCluster
    rows: tuple[PlaneCurve, ...]
    weights: dict = field(default_factory=dict)  # row name -> weight in the totals
    totals: tuple[int, ...] = ()
    gram: dict = field(default_factory=dict)  # (name, name) -> expected product

    def row(self, name: str) -> PlaneCurve:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "points": list(self.cluster.points),
            "rows": [r.to_json() for r in self.rows],
            "proximity": [list(e) for e in self.cluster.proximity],
            "planar": list(self.cluster.planar),
            "weights": dict(self.weights),
            "totals": list(self.totals),
            "gram": {f"{a},{b}": v for (a, b), v in sorted(self.gram.items())},
        }


def verify_config_table(table: ConfigTable, totals: tuple[int, ...] | None = None,
                        intersections: dict | None = None) -> tuple[bool, list[str]]:
    """Check weighted column totals and all declared intersection numbers.

    ``totals`` and ``intersections`` override the expectations carried by the
    table when given.
    """
    if totals is not None or intersections is not None:
        table = ConfigTable(table.cluster, table.rows, table.weights,
                            totals if totals is not None else table.totals,
                            intersections if intersections is not None else table.gram)
    violations = []
    if table.totals:
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
                      expected: int | str) -> str | None:
    """Check one declared product ``a.b`` of the rows ``ra`` and ``rb``.

    ``expected`` is an integer or a bound such as ``">=1"``; returns the
    violation, or None when the product meets it.
    """
    got = ra.self_int() if a == b else ra.dot(rb)
    if isinstance(expected, str):  # inequalities like ">=1"
        bound = int(expected.lstrip(">="))
        return None if got >= bound else f"{a}.{b} = {got} not >= {bound}"
    return None if got == expected else f"{a}.{b} = {got} != {expected}"


# -- Cremona quadratic transforms ----------------------------------------------


def _transform_curve(curve: PlaneCurve, idxs: tuple[int, int, int]) -> PlaneCurve:
    i, j, k = idxs
    m = curve.mults
    d = curve.degree
    new_d = 2 * d - m[i] - m[j] - m[k]
    if new_d < 0:
        raise PlaneError(f"{curve.name}: transform would give negative degree")
    new_m = list(m)
    new_m[i] = d - m[j] - m[k]
    new_m[j] = d - m[i] - m[k]
    new_m[k] = d - m[i] - m[j]
    virtual = curve.virtual or any(v < 0 for v in new_m)
    return replace(curve, degree=new_d, mults=tuple(new_m), virtual=virtual)


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
        refuted = any(
            c.mults[ix] < sum(c.mults[cluster.index(o)] for o in others)
            for c in real)
        if not refuted:
            return False, f"cannot refute both base points proximate to {x}"
    return True, ""


def quadratic_transform(cluster: PointCluster, curves: list[PlaneCurve],
                        base: tuple[str, str, str],
                        check: bool = True) -> tuple[PointCluster, list[PlaneCurve]]:
    """Apply the quadratic transformation based at three cluster points.

    Degrees map to 2d - m1 - m2 - m3 and the base multiplicities to
    d - mj - mk; all pairwise products, self-intersections and genera are
    preserved (asserted).
    """
    if check:
        ok, why = admissible_base(curves, cluster, base)
        if not ok:
            raise PlaneError(f"inadmissible base triple: {why}")
    idxs = tuple(cluster.index(p) for p in base)
    new_curves = [_transform_curve(c, idxs) for c in curves]
    for old, new in zip(curves, new_curves):
        if old.self_int() != new.self_int():
            raise PlaneError(f"{old.name}: self-intersection changed")
        if not old.virtual and not new.virtual and old.genus() != new.genus():
            raise PlaneError(f"{old.name}: genus changed")
    for a in range(len(curves)):
        for b in range(a + 1, len(curves)):
            if curves[a].dot(curves[b]) != new_curves[a].dot(new_curves[b]):
                raise PlaneError("pairwise intersection changed")
    return cluster, new_curves


# -- the homaloidal-type Diophantine systems ------------------------------------


def solve_multiplicity_system(c1: int, c2: int, max_points: int,
                              d_range: tuple[int, int] = (0, 12),
                              ) -> list[tuple[int, dict[int, int]]]:
    """All (d0, {s_j}) with sum j^2 s_j = d0^2 - c1, sum j s_j = 3 d0 - c2,
    sum s_j <= max_points and s_j >= 0.

    Exhaustive: for each d0 the multiplicity j is bounded by d0, and a
    Cauchy-Schwarz cut prunes infeasible degrees.
    """
    if c1 < 0 or c2 < 0:
        raise PlaneError("c1 and c2 must be nonnegative")
    solutions = []
    for d0 in range(d_range[0], d_range[1] + 1):
        target_sq = d0 * d0 - c1
        target_lin = 3 * d0 - c2
        if target_sq < 0 or target_lin < 0:
            continue
        if target_lin ** 2 > max_points * target_sq:
            continue

        def rec(j: int, rem_sq: int, rem_lin: int, rem_pts: int, acc: dict):
            if rem_sq == 0 and rem_lin == 0:
                solutions.append((d0, dict(acc)))
                return
            if j == 0 or rem_sq < 0 or rem_lin < 0 or rem_pts == 0:
                return
            max_s = min(rem_pts, rem_sq // (j * j), rem_lin // j)
            for s in range(max_s, -1, -1):
                if s:
                    acc[j] = s
                rec(j - 1, rem_sq - s * j * j, rem_lin - s * j, rem_pts - s, acc)
                acc.pop(j, None)

        rec(d0 if d0 > 0 else 1, target_sq, target_lin, max_points, {})
    # two solutions may share d0, so order them by their multiplicities too
    solutions.sort(key=lambda s: (s[0], sorted(s[1].items(), reverse=True)))
    return solutions


def state_from_solution(d0: int, s: dict[int, int], n_points: int = 8) -> tuple:
    """Canonical state for the orbit search: degree plus sorted multiplicities."""
    mults = []
    for j, count in sorted(s.items(), reverse=True):
        mults.extend([j] * count)
    if len(mults) > n_points:
        raise PlaneError("more points than available")
    mults += [0] * (n_points - len(mults))
    return (d0, tuple(sorted(mults, reverse=True)))


def _moves(state: tuple):
    """All admissible quadratic moves out of an abstract (d; mults) state."""
    d, mults = state
    n = len(mults)
    seen_triples = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                triple = (mults[i], mults[j], mults[k])
                if triple in seen_triples:
                    continue
                seen_triples.add(triple)
                s = sum(triple)
                if s <= d:
                    continue  # no non-collinearity certificate
                # refute "both others proximate to x" for each point of the triple
                if any(triple[x] >= s - triple[x] for x in range(3)):
                    continue
                new_d = 2 * d - s
                if new_d < 0:
                    continue
                new = list(mults)
                new[i] = d - triple[1] - triple[2]
                new[j] = d - triple[0] - triple[2]
                new[k] = d - triple[0] - triple[1]
                if any(v < 0 for v in new):
                    continue
                yield triple, (new_d, tuple(sorted(new, reverse=True)))


def cremona_orbit_connect(solutions: list[tuple[int, dict[int, int]]],
                          n_points: int = 8, max_depth: int = 12) -> dict:
    """Breadth-first search connecting all solutions by quadratic moves.

    Returns move chains from the lexicographically largest state to every
    other solution; raises when some solution is unreachable.  Each move is a
    quadratic transform, hence an involution, so the chains certify mutual
    reachability: the reverse chain applies the same transforms again.
    """
    states = {state_from_solution(d0, s, n_points): (d0, s) for d0, s in solutions}
    start = max(states)
    frontier = [start]
    paths: dict[tuple, list] = {start: []}
    while frontier:
        nxt = []
        for state in frontier:
            if len(paths[state]) >= max_depth:
                continue
            for triple, new_state in _moves(state):
                if new_state not in paths:
                    paths[new_state] = paths[state] + [(state, triple, new_state)]
                    nxt.append(new_state)
        frontier = nxt
    missing = [s for s in states if s not in paths]
    if missing:
        raise PlaneError(f"orbit search exhausted; unreachable: {missing}")
    return {state: paths[state] for state in states}


def degree_budget(k: int) -> int:
    """Total plane degree 2 d_0 + sum d_i of the branch configuration: 3k."""
    if k not in (6, 7):
        raise PlaneError("the anticanonical multiple is 6 or 7 here")
    return 3 * k


# -- the ruled endgame ----------------------------------------------------------


def ruled_constraints(a: int) -> dict:
    """Nef constraints of the minimal-model ladder over F_a (pencil branch).

    The section class c must meet the pulled-back pencil nonnegatively:
    c.N = 7 - 3a >= 0, the four E'-curves decompose with alpha_i = 3 and
    beta_i >= 3a, and the beta-sum is 13 + 6a.
    """
    return {
        "a_ok": 7 - 3 * a >= 0,
        "c_dot_n": 7 - 3 * a,
        "alpha": 3,
        "beta_sum": 13 + 6 * a,
        "beta_min": 3 * a,
    }


def singular_fiber_count_bound(a: int, beta_i: int) -> int:
    """Least r with Delta-contribution 2 beta_i + 7 - 3a <= 6r."""
    if a not in (0, 1, 2):
        raise PlaneError("a must be 0, 1 or 2")
    need = 2 * beta_i + 7 - 3 * a
    r = 0
    while 6 * r < need:
        r += 1
    return r


def fa_ladder_checks(a: int, steps: int) -> dict:
    """Verify the ladder over F_a as exact identities in the (c, f, D_j) lattice.

    ``steps`` is the number of adjoint steps between the rational pencil and N
    (3 for the deepest branch, 2 for the middle one).  Returns the squares of
    the ladder classes and the section pairings.
    """
    from .lattice import IntersectionLattice

    lat_points = 9
    labels = ("c", "f") + tuple(f"D{i}" for i in range(1, lat_points + 1))
    size = len(labels)
    gram = [[0] * size for _ in range(size)]
    gram[0][0] = -a
    gram[0][1] = gram[1][0] = 1
    for i in range(2, size):
        gram[i][i] = -1
    canonical = [-2, -(a + 2)] + [1] * lat_points
    lat = IntersectionLattice(tuple(labels), tuple(tuple(r) for r in gram),
                              tuple(canonical), name=f"F{a}+{lat_points}")
    k = lat.k
    pencil = lat.basis_class("f")
    chain = [pencil]
    for _ in range(steps):
        chain.append(chain[-1] - k)
    n_class = chain[-1]
    branch = n_class - 3 * k
    c = lat.basis_class("c")
    return {
        "squares": [cls.square for cls in chain],
        "n_square": n_class.square,
        "c_dot_n": c.dot(n_class),
        "c_dot_branch": c.dot(branch),
        "branch_coeffs": {"c": branch.coeffs[0], "f": branch.coeffs[1],
                          "delta": branch.coeffs[2]},
    }


def homaloidal_eliminate(branch: str) -> dict:
    """Replay the plane-model contradiction for the deepest ruled branch.

    ``branch`` is "generic" (moving part with square 1 and genus 2, covering
    the surviving cases with an exceptional part) or "A'=N" (no exceptional
    part, where the pencil itself has degree 10).  The three multiplicity
    equations overdetermine the degree: their resultant is the exact square
    (d - 6)^2, and d = 6 then violates the count of available points.
    """
    if branch == "generic":
        abar_sq, pa = 1, 2
    elif branch == "A'=N":
        abar_sq, pa = 3, 3
    else:
        raise PlaneError("branch must be 'generic' or \"A'=N\"")
    trace = []
    # mu = d - 6 from A'.(pencil) = 6; then for each d:
    #   sum j s_j       = 2d + 7
    #   sum j^2 s_j     = d^2 - abar_sq
    #   sum j(j-1) s_j  = (d-1)(d-2) - (d-6)(d-7) - 2 pa = 10d - 44 - 2(pa - 2)
    lin = lambda d: 2 * d + 7
    sq = lambda d: d * d - abar_sq
    jj = lambda d: 10 * d - 44 - 2 * (pa - 2)
    # consistency polynomial sq - lin - jj must be the square (d - 6)^2;
    # evaluate at three points and interpolate exactly
    vals = {d: sq(d) - lin(d) - jj(d) for d in (0, 1, 2)}
    a2 = (vals[0] - 2 * vals[1] + vals[2]) // 2
    a1 = vals[1] - vals[0] - a2
    a0 = vals[0]
    poly = (a0, a1, a2)
    if poly != (36, -12, 1):
        raise PlaneError(f"consistency polynomial {poly} is not (d-6)^2")
    trace.append("sum j^2 s - sum j s - sum j(j-1) s = d^2 - 12 d + 36 = (d-6)^2")
    d = 6
    if branch == "A'=N":
        required_degree = 10  # the pencil class itself has plane degree 10
        trace.append(f"(d-6)^2 = 0 forces d = 6, but the pencil has degree {required_degree}")
        return {"branch": branch, "poly": poly, "d": d,
                "required_degree": required_degree, "verdict": "contradiction",
                "trace": trace}
    lin6, sq6 = lin(6), sq(6)
    trace.append(f"d = 6: sum j s_j = {lin6}, sum j^2 s_j = {sq6}")
    # subtracting: 20 s5 + 12 s4 + 6 s3 + 2 s2 = 16, so s5 = 0, s4 <= 1 and
    # s1 + s2 = 11 + 2 s4 > 9
    diff = sq6 - lin6
    trace.append(f"20 s5 + 12 s4 + 6 s3 + 2 s2 = {diff}")
    best = None
    for s4 in (0, 1):
        rem = diff - 12 * s4
        for s3 in range(rem // 6 + 1):
            s2 = (rem - 6 * s3) // 2
            if 6 * s3 + 2 * s2 != rem:
                continue
            s1 = lin6 - 4 * s4 - 3 * s3 - 2 * s2
            count = s1 + s2 + s3 + s4
            if best is None or count < best[0]:
                best = (count, s4, s3, s2, s1)
    count, s4, s3, s2, s1 = best
    trace.append(f"s1 + s2 = {s1 + s2} = 11 + 2 s4 with s4 = {s4}; needs > 9 points")
    if s1 + s2 != 11 + 2 * s4:
        raise PlaneError("count identity fails")
    return {"branch": branch, "poly": poly, "d": d, "min_points": count,
            "available": 9, "verdict": "contradiction" if s1 + s2 > 9 else "survives",
            "trace": trace}


@dataclass(frozen=True)
class BranchAssignment:
    """Eigenvalue exponents of the branch components (powers of the cube root).

    The two exceptional curves over the A_2-type point carry conjugate
    exponents: exponent(H) = 2 exponent(F) mod 3.
    """

    exponent: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        table = dict(self.exponent)
        for name, value in table.items():
            if value not in (1, 2):
                raise PlaneError(f"exponent of {name} must be 1 or 2")
        if "F" in table and "H" in table:
            if table["H"] % 3 != (2 * table["F"]) % 3:
                raise PlaneError("the exceptional pair must carry conjugate exponents")

    def __getitem__(self, name: str) -> int:
        return dict(self.exponent)[name]


@dataclass(frozen=True)
class RuledModel:
    """The minimal-model ladder over a Hirzebruch surface.

    ``a`` is the Hirzebruch index and ``steps`` the number of adjoint steps
    between the base-point-free rational pencil and the tricanonical image.
    Constructing the model checks the ladder identities exactly.
    """

    a: int
    steps: int

    def __post_init__(self) -> None:
        data = self.data()
        if data["squares"][0] != 0:
            raise PlaneError("the pencil class must have square 0")
        if data["n_square"] != data["squares"][-1]:
            raise PlaneError("inconsistent ladder data")

    def data(self) -> dict:
        return fa_ladder_checks(self.a, self.steps)

    @property
    def section_dot_n(self) -> int:
        return self.data()["c_dot_n"]

    def is_nef_admissible(self) -> bool:
        return self.section_dot_n >= 0

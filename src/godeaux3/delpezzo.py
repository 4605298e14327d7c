"""The Del Pezzo endgame: multiplicity tables, eigenvalue audits, branch kills.

The surviving branches put the quotient surface over the plane blown up at
eight (then fourteen) points.  The printed multiplicity tables are shipped as
fixtures; everything checked here is exact integer arithmetic on those rows.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

from .adjoint import cycle_names
from .fibration import B0_SQ, EXC_SQ, Elimination, _partitions
from .lattice import IntersectionLattice, canonical_degree, index_slack
from .plane import (DEL_PEZZO_POINTS, ConfigTable, PlaneCurve, PlaneError, PointCluster,
                    product_violation, proximity_holds, quadratic_transform,
                    solve_multiplicity_system, verify_config_table)

_E_NAMES = ("E1", "E2", "E3", "E4", "E5")
_WEIGHTS = {"B0": 2, **{e: 1 for e in _E_NAMES}}  # the branch curve 2 B_0 + sum E_k
# the plane model of an exceptional curve F' or H', by its plane degree
KINDS = {2: "conic", 1: "line", 0: "contracted"}


class FixtureError(Exception):
    """A shipped fixture file is missing, unreadable, not a JSON object or lacks a key."""


class _Fixture:
    """The JSON object of a file in ``fixtures/``, read on first use; a key it lacks raises."""

    def __init__(self, name: str) -> None:
        self.path, self._data = Path(__file__).parent / "fixtures" / name, None

    def _load(self) -> dict:
        if self._data is None:
            try:
                data = json.loads(self.path.read_text())
            except (OSError, ValueError) as exc:
                raise FixtureError(f"{self.path}: {getattr(exc, 'strerror', exc)}") from None
            if not isinstance(data, dict):
                raise FixtureError(f"{self.path}: not a JSON object")
            self._data = data
        return self._data

    def __getitem__(self, key: str):
        data = self._load()
        if key not in data:  # a fixture lacking a key is bad input, not a failed node
            raise FixtureError(f"{self.path}: no key {key!r}")
        return data[key]


_DATA = _Fixture("config_tables.json")


def _rows_from_json(rows_json) -> tuple[PlaneCurve, ...]:
    return tuple(
        PlaneCurve(r["name"], r["degree"], tuple(r["mults"]), r.get("virtual", False))
        for r in rows_json)


def _gram_14pt(with_fh: bool) -> dict:
    # intersection numbers of the branch curves on the quotient surface: disjoint
    # (-3)-curves E'_k (and F', H') and the (-6)-curve B_0
    names = ("B0", *_E_NAMES, *(("F", "H") if with_fh else ()))
    gram = {(a, b): 0 for i, a in enumerate(names) for b in names[i + 1:]}
    return {**gram, **{(n, n): EXC_SQ for n in names}, ("B0", "B0"): B0_SQ}


def table_8pt(key: str) -> ConfigTable:
    data = _DATA["tables_8pt"][key]
    cluster = PointCluster(tuple(data["points"]))
    rows = _rows_from_json(data["rows"])
    gram = {tuple(k.split(",")): v for k, v in data["pairs"].items()}
    gram.update({(n, n): v for n, v in data["self"].items()})
    return ConfigTable(cluster, rows, weights=_WEIGHTS,
                       totals=tuple(data["totals"]), gram=gram)


def anticanonical_pairing(table: ConfigTable) -> dict[str, int]:
    """3d - sum(m) per row: the pairing against the genus-one pencil."""
    return {r.name: 3 * r.degree - sum(r.mults) for r in table.rows}


def check_8pt_pairings(key: str, table: ConfigTable) -> bool:
    """``table``, the eight-point table ``key``, pairs with the pencil as printed."""
    return anticanonical_pairing(table) == _DATA["tables_8pt"][key]["pencil_pairing"]


def table_14pt(variant: str | None) -> ConfigTable:
    """The fourteen-point table, optionally with the F/H rows of a variant."""
    base = _DATA["base_14pt"]
    cluster = PointCluster(tuple(base["points"]))
    rows = list(_rows_from_json(base["rows"]))
    with_fh = variant is not None
    if with_fh:
        var = _DATA["fh_variants"][variant]
        rows += _rows_from_json({"name": x, **var[x]} for x in ("F", "H"))
    return ConfigTable(cluster, tuple(rows), weights=_WEIGHTS,
                       totals=tuple(base["totals"]), gram=_gram_14pt(with_fh))


def all_printed_tables() -> list[tuple[str, ConfigTable]]:
    out = [(f"8pt:{k}", table_8pt(k)) for k in sorted(_DATA["tables_8pt"])]
    out.append(("14pt:base", table_14pt(None)))
    for variant in sorted(_DATA["fh_variants"]):
        out.append((f"14pt:{variant}", table_14pt(variant)))
    return out


def perturbation_sweep(table: ConfigTable) -> list[str]:
    """Mutate every entry by +-1 and report mutations that pass every check.

    An empty result certifies the checks pin each entry of the table.

    Only the unmutated table is verified in full.  A mutant of row r differs
    from it in r alone, and every check that does not read r has already
    passed, so the mutant passes exactly when the checks that read r pass:
    the total of the mutated column, which a multiplicity mutant moves by
    weight x delta and a degree mutant leaves alone; each declared product
    naming r, recomputed with the mutated row.  Products are resolved by row
    name, which ``verify_config_table`` requires to be unique.  An empty sweep
    certifies the column totals and declared products only: mutants are
    flagged virtual, and ``proximity_ok`` accepts every virtual row, so the
    proximity inequalities could never reject one.
    """
    ok, violations = verify_config_table(table)
    if not ok:
        raise PlaneError(f"table fails before mutation: {violations}")
    rows = {r.name: r for r in table.rows}
    products: dict[str, list] = {name: [] for name in rows}
    for (a, b), expected in sorted(table.gram.items()):
        if a == b:  # first: a +-1 mutant moves its own square by an odd number
            products[a].insert(0, (a, b, expected))
        else:
            products[a].append((a, b, expected))
            products[b].append((a, b, expected))

    def passes(mutated: PlaneCurve) -> bool:
        now = {**rows, mutated.name: mutated}
        return not any(product_violation(a, b, now[a], now[b], expected)
                       for a, b, expected in products[mutated.name])

    unsharp = []
    for row in table.rows:
        moves_total = bool(table.weights.get(row.name, 0))
        for ci in range(len(row.mults) + 1):
            for delta in (1, -1):
                if ci == len(row.mults):
                    if row.degree + delta < 0:
                        continue
                    mutated = PlaneCurve(row.name, row.degree + delta, row.mults, True)
                    where = "degree"
                else:
                    if moves_total and ci < len(table.totals):
                        continue  # its weighted column total is off by weight x delta
                    m = list(row.mults)
                    m[ci] += delta
                    mutated = PlaneCurve(row.name, row.degree, tuple(m), True)
                    where = table.cluster.points[ci]
                if passes(mutated):
                    unsharp.append(f"{row.name}@{where}{delta:+d}")
    return unsharp


# -- the eight-point options and their index-theorem filters ---------------------

# the genus-one pencil |-K| of the plane blown up at eight points
_PENCIL_SQ = IntersectionLattice.plane_blow_up(DEL_PEZZO_POINTS).k.square

# per curve: its square on Y, how often it meets each Z_i, and C.(2 B_0 + E), as
# B_0 and the E'_k are disjoint (see _gram_14pt)
_CURVES = {"B0": (B0_SQ, 1, 2 * B0_SQ), "E'": (EXC_SQ, 0, EXC_SQ)}


def contraction(square: int, meets: tuple[int, ...]) -> tuple[int, int]:
    """(C^2, C.(-K_W)) for the image of a smooth rational curve C of ``square`` once
    the (-1)-cycles it meets ``meets`` times each are contracted: each cycle met m
    times adds m^2 and m, to C^2 and to -K_Y.C = 2 + C^2 (adjunction)."""
    return square + sum(m * m for m in meets), sum(meets) - canonical_degree(square)


def _columns(curve: str, counts: tuple[int, ...]) -> list[str]:
    """One option column per cycle of the last two levels of the ladder with ``counts``."""
    *_, before, last = cycle_names(counts)
    return [f"{curve}.{z}" for z in (*before, *last)]


def options(curve: str, counts: tuple[int, ...]) -> list[dict]:
    """Every distribution of ``curve`` (B0 or E') against the contracted cycles of
    the ladder with ``counts`` cycles per level, with the square and pencil pairing
    of its image and the verdict of the index theorem against the pencil (square
    1): excluded above (D.N)^2, pinned to the pencil class at it.  The cycles of
    one level are interchangeable, so their values are nonincreasing; the one
    cycle of the last level takes what the total leaves.

    The total 2 C.(level before the last) + C.(last level) comes from the ladder
    identity 2 B_0 + E = N - 3K + 3G' that ``verify_ladder_identity`` checks: down to
    N_L = 0, N = sum_k (G' + the cycles of levels <= k) - L K, so a cycle of level k
    has weight L - k + 1, and C misses G'.  A B0 option is one of B_0's l components,
    so the rule holds for l >= 1.
    """
    if counts[-1] != 1 or sum(counts) != counts[0] + counts[-2] + 1:
        raise ValueError(f"{counts}: options need one cycle on the last level, none in between")
    square, z_meets, branch = _CURVES[curve]
    depth = len(counts)
    total = branch + (depth + 3) * canonical_degree(square) - depth * counts[0] * z_meets
    columns = _columns(curve, counts)
    out = []
    for values in sorted(p for s in range(total // 2 + 1) for p in _partitions(s, counts[-2])):
        values += (total - 2 * sum(values),)
        image, pairing = contraction(square, (z_meets,) * counts[0] + values)
        slack = index_slack(image, pairing, _PENCIL_SQ)
        verdict = "excluded" if slack < 0 else "pinned-to-pencil" if slack == 0 else "open"
        out.append({**dict(zip(columns, values)),
                    "pairing": pairing, "square": image, "verdict": verdict})
    return out


# per E' elimination: the E'-curves sharing one last-level sum, that sum, and the
# wording of its trace
_SPLITS = {
    "l.noa": (2, 6, "(E'_1+E'_2).Z''' = {total} splits as {splits}; "
              "some E' has E'.Z''' = {worst}", ", violating the index theorem"),
    "l.nob": (3, 5, "odd splits of {total}: {splits}; some E'.Z'' = {worst}",
              " against the index theorem"),
}


def elim_forced_split(prop_id: str, counts: tuple[int, ...]) -> Elimination:
    """l.noa, l.nob: the E'-curves' last-level values, each that of an E' option of
    the ladder with ``counts``, add up to the given sum.  Every split forces its
    largest value, and each option at or above the least of these is excluded."""
    curves, total, head, tail = _SPLITS[prop_id]
    last = _columns("E'", counts)[-1]
    opts = options("E'", counts)
    splits = [c for c in product(sorted({o[last] for o in opts}), repeat=curves)
              if sum(c) == total]
    worst = min(max(c) for c in splits)
    forced = [o for o in opts if o[last] >= worst]
    square, pairing = next((o["square"], o["pairing"]) for o in forced if o[last] == worst)
    cap = square + index_slack(square, pairing, _PENCIL_SQ)
    return Elimination(
        prop_id, str(square), str(cap),
        "contradiction" if all(o["verdict"] == "excluded" for o in forced) else "survives",
        (head.format(total=total, splits=splits, worst=worst),
         f"its image has square {square} > {cap}{tail}"),
    )


def degree_budget(k: int) -> int:
    """Total plane degree 2 d_0 + sum d_i of the branch configuration: 3k."""
    if k not in (6, 7):
        raise PlaneError("the anticanonical multiple is 6 or 7 here")
    return 3 * k


def elim_p_no3lirr(solved: dict[tuple[int, int, int], list], b0_degree: int,
                   counts: tuple[int, ...]) -> Elimination:
    """Deepest branch, option b: both free E'-curves need plane degree >= 3.

    Each takes one of the E' options the index theorem leaves on the deepest
    ladder, with ``counts`` cycles per level.  ``solved`` maps a multiplicity
    system (square, pairing, points) solved elsewhere to its solutions; the other
    systems are solved here, and a system no option asks for raises
    ``PlaneError``.  B_0 is normalized to the top of its Cremona orbit, of plane
    degree ``b0_degree``.
    """
    budget = degree_budget(7) - 2 * b0_degree
    demands = []
    trace = []
    # pencil-pinned first; the excluded options are the index-theorem kill of l.noa
    live = [o for o in reversed(options("E'", counts)) if o["verdict"] != "excluded"]
    stray = set(solved) - {(o["square"], o["pairing"], DEL_PEZZO_POINTS) for o in live}
    if stray:
        raise PlaneError(f"no deepest E' option asks for the systems {sorted(stray)}")
    columns = _columns("E'", counts)
    for o in live:
        at = f"({', '.join(columns)}) = ({','.join(str(o[c]) for c in columns)})"
        system = (o["square"], o["pairing"], DEL_PEZZO_POINTS)
        sols = solved[system] if system in solved else solve_multiplicity_system(*system)
        if not sols:
            trace.append(f"{at}: no plane model at all")
            continue
        dmin = min(d for d, _ in sols)
        demands.append(dmin)
        trace.append(f"{at}: min degree {dmin}, solutions {[(d, s) for d, s in sols]}")
    lhs = 2 * min(demands)
    return Elimination(
        "p.no3lirr", str(lhs), str(budget),
        "contradiction" if lhs > budget else "survives",
        tuple(trace) + (
            f"E'_1 and E'_2 are both uncontracted: degrees sum to >= {lhs} > {budget}",),
    )


def elim_p_3lred() -> Elimination:
    """Deepest branch with a reducible cycle: B_0 becomes numerically trivial."""
    meets = (1, 1, 2)  # B_0.Z_1 = B_0.Z_2 = 1, B_0.Z_3 = 2
    square, pairing = contraction(B0_SQ, meets)
    b0_n3 = 0 + 3 * 4 - 3 * sum(meets)  # B_0.N_3 = B_0.N + 3 B_0.K - 3 B_0(sum Z)
    ok = square == pairing == 0 and b0_n3 == 0
    return Elimination(
        "p.3lred", str(square), "0",
        "contradiction" if ok else "failed",
        ("after contracting the cycles B_0 has square 0 and meets the pencil in 0",
         "index theorem and rationality force B_0 = 0, impossible for a curve"),
    )


# -- six-tuples and the exceptional F/H curves ----------------------------------


def sixtuple_enumerate() -> dict:
    """Admissible degree 6-tuples (d_0, d_1..d_5) with d_0 = 8.

    Budget: sum d_i = 18 - 2 d_0 = 2; the two pencil-orthogonal curves have
    d_i + 1 = m_7 + m_8 <= 2, the other three m_7 + m_8 = d_i <= 2.  A tuple
    with two lines among the pencil-orthogonal pair would force two distinct
    lines through both double points.
    """
    kept, excluded = [], []
    d0 = 8
    budget = degree_budget(6) - 2 * d0
    for split in range(budget + 1):
        for d123 in _partitions(split, 3):
            for d45 in _partitions(budget - split, 2):
                tup = (d0,) + d123 + d45
                if any(d > 1 for d in d45):
                    excluded.append((tup, "d_i + 1 = m_7 + m_8 <= 2 forces d_i <= 1"))
                    continue
                if d45 == (1, 1):
                    # both curves would be lines through P_7 and P_8: their
                    # product is 1 - 2 = -1, but distinct images meet in 0
                    excluded.append((tup, "two lines through P_7, P_8 give E4.E5 = -1"))
                    continue
                kept.append(tup)
    kept.sort(reverse=True)
    return {"kept": kept, "excluded": excluded}


def exceptional_curve_solutions() -> dict:
    """Plane models of the two exceptional (-3)-curves F', H' and their pairs.

    A model of degree d has m_2 + m_3 = m_4 + m_5 + m_6 = d, m_7 = m_2, m_8 = m_3 and
    m_14 = 1, so C^2 = -3 reads (d - 2 m_2)^2 + m_4^2 + m_5^2 + m_6^2 = 2: each of m_4,
    m_5, m_6 is -1, 0 or 1, d is their sum, and m_2, m_3 >= 0.  Keeps the pairs with
    product 0.
    """
    singles = []
    for m456 in product((-1, 0, 1), repeat=3):
        d = sum(m456)
        for m2 in range(0, d + 1):
            m3 = d - m2
            mults = [0] * 14
            mults[1], mults[2] = m2, m3
            mults[3:6] = m456
            mults[6], mults[7] = m2, m3
            mults[13] = 1
            curve = PlaneCurve(f"d{d}", d, tuple(mults), virtual=True)
            if curve.self_int() == EXC_SQ:
                singles.append((KINDS[d], curve))
    pairs = []
    for i, (kind1, c1) in enumerate(singles):
        for kind2, c2 in singles[i:]:
            if c1.dot(c2) == 0:
                pairs.append(tuple(sorted((kind1, kind2))))
    pair_kinds = sorted(set(pairs))
    return {
        "by_kind": {k: sum(1 for kk, _ in singles if kk == k) for k in KINDS.values()},
        "admissible_pairs": pair_kinds,
    }


# -- forced planar points and the mod-3 eigenvalue audit -------------------------


def forced_proximities(table: ConfigTable) -> list[tuple[str, str]]:
    """Proximity edges read off the virtual exceptional rows.

    A virtual row of degree 0 with a single entry -1 at P is the strict
    transform of the exceptional curve over P; its +1 entries are the points
    proximate to P.
    """
    return _proximities(table.cluster.points, _exceptional_rows(table))


def _proximities(pts: tuple[str, ...], rows: list[tuple[str, PlaneCurve]]) -> list[tuple[str, str]]:
    """(Q, P) for each entry +1 at Q of each exceptional row (P, row)."""
    return [(pts[i], parent) for parent, row in rows for i, m in enumerate(row.mults) if m == 1]


def _exceptional_rows(table: ConfigTable) -> list[tuple[str, PlaneCurve]]:
    """(P, row) for each virtual row of degree 0 whose only negative entry is -1 at P."""
    out = []
    for row in table.rows:
        negatives = [i for i, m in enumerate(row.mults) if m < 0]
        if row.virtual and row.degree == 0 and [row.mults[i] for i in negatives] == [-1]:
            out.append((table.cluster.points[negatives[0]], row))
    return out


def is_forced_planar(table: ConfigTable, point: str) -> tuple[bool, list[str]]:
    """True when no point of the cluster can serve as a proximity parent."""
    pts = table.cluster.points
    pi = pts.index(point)
    rows = _exceptional_rows(table)
    edges = _proximities(pts, rows)
    exceptional_row = dict(rows)
    reasons = []
    for cand in pts:
        if cand == point:
            continue
        # every non-virtual row must meet the inequality at cand, point among its children
        kids = [pi] + [pts.index(ch) for ch, par in edges if par == cand and ch != point]
        ok = all(proximity_holds(row, pts.index(cand), kids)
                 for row in table.rows if not row.virtual)
        if ok and cand in exceptional_row:
            if exceptional_row[cand].mults[pi] != 1:
                ok = False
                reasons.append(f"{point} absent from the exceptional row over {cand}")
        if ok:
            # adding point > cand must not close a cycle with forced edges
            try:
                PointCluster(pts, (*edges, (point, cand)))
            except PlaneError:
                ok = False
                reasons.append(f"{point} above {cand} would close a proximity cycle")
        if ok:
            return False, [f"{cand} admissible as parent of {point}"]
    reasons.append(f"no admissible parent: {point} is planar")
    return True, reasons


def eigenvalue_audit(table: ConfigTable, planar_points: list[str]) -> Elimination:
    """Solve the mod-3 branch constraints for the eigenvalue exponents.

    The branch curve has total plane degree 0 mod 3, and at each planar point
    total multiplicity 0 mod 3 (entries counted unsigned); the component of
    the divisorial ramification is normalized to exponent 1 and the two
    exceptional curves over the A_2 point carry conjugate exponents.
    """
    pts = table.cluster.points
    free = [r.name for r in table.rows if r.name in _E_NAMES]
    equations = []
    degree_eq = {r.name: r.degree for r in table.rows}
    equations.append(("degree", degree_eq))
    for p in planar_points:
        col = pts.index(p)
        equations.append((p, {r.name: abs(r.mults[col]) for r in table.rows}))
    solutions = []
    trace = [f"unknowns: {free} and F (H = 2F mod 3); ramification curve fixed to 1"]
    for combo in product((1, 2), repeat=len(free) + 1):
        nu = dict(zip(free, combo[:-1]))
        nu["F"] = combo[-1]
        nu["H"] = (2 * combo[-1]) % 3
        nu["B0"] = 1
        if all(sum(w * nu[name] for name, w in eq.items()) % 3 == 0
               for _, eq in equations):
            solutions.append(nu)
    for label, eq in equations:
        terms = "+".join(f"{w}*{n}" for n, w in sorted(eq.items()) if w)
        trace.append(f"{label}: {terms} = 0 mod 3")
    verdict = "contradiction" if not solutions else "survives"
    trace.append(f"{len(solutions)} admissible exponent assignments")
    return Elimination("eigenvalue-audit", str(len(solutions)), "0", verdict,
                       tuple(trace), tuple(tuple(sorted(s.items())) for s in solutions))


# -- the three configuration eliminations ---------------------------------------


# Each runs on a printed table as given; the proof tree verifies the printed
# tables once, in the node the three eliminations read.


def _planar_audit(prop_id: str, table: ConfigTable, points: tuple[str, ...]) -> Elimination:
    """The eigenvalue audit at ``points``, once each is shown to be forced planar."""
    derivations = []
    for p in points:
        planar, why = is_forced_planar(table, p)
        if not planar:
            return Elimination(prop_id, p, "planar", "failed", tuple(why))
        derivations.extend(why)
    audit = eigenvalue_audit(table, list(points))
    return audit._replace(prop_id=prop_id, trace=tuple(derivations) + audit.trace)


def elim_p_3l1(table: ConfigTable) -> Elimination:
    """Two-lines configuration, on its ``table``: exponents cannot exist at P_2 and P_3."""
    return _planar_audit("p.3l-1", table, ("P2", "P3"))


def _transformed_elimination(prop_id: str, variant: str, source: ConfigTable) -> Elimination:
    """The audit at P6 of ``source``, the table of ``variant``, once its quadratic
    transform matches the fixture's."""
    fixture = _DATA["transformed_14pt"][variant]
    rows = quadratic_transform(source.cluster, list(source.rows), tuple(fixture["base"]))
    expected = _rows_from_json(fixture["rows"])
    names = [r.name for r in rows]
    if names != [r.name for r in expected]:
        return Elimination(prop_id, "rows", "fixture", "failed",
                           (f"transformed rows {names} differ from the fixture's",))
    for got, want in zip(rows, expected):
        if (got.degree, got.mults) != (want.degree, want.mults):
            return Elimination(prop_id, got.name, "fixture", "failed",
                               (f"transformed row {got.name} differs from the fixture",))
    return _planar_audit(prop_id, ConfigTable(source.cluster, tuple(rows), {}, (), {}), ("P6",))


def elim_p_3l12(table: ConfigTable) -> Elimination:
    return _transformed_elimination("p.3l-12", "contracted-conic", table)


def elim_p_3l13(table: ConfigTable) -> Elimination:
    return _transformed_elimination("p.3l-13", "contracted-contracted", table)


def lines_to_contracted_move(table: ConfigTable) -> bool:
    """The two-lines ``table`` maps onto the line + contracted one under the
    quadratic transformation based at P_3, P_4, P_8 (up to the F/H naming)."""
    rows = quadratic_transform(table.cluster, list(table.rows), ("P3", "P4", "P8"))
    by_name = {r.name: r for r in rows}
    h_new = by_name["H"]
    return h_new.degree == 0 and sorted(h_new.mults) == sorted(
        (0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1))


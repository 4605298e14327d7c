"""The Del Pezzo endgame: multiplicity tables, eigenvalue audits, branch kills.

The surviving branches put the quotient surface over the plane blown up at
eight (then fourteen) points.  The printed multiplicity tables are shipped as
fixtures; everything checked here is exact integer arithmetic on those rows.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import product

from .fibration import Elimination
from .plane import (ConfigTable, PlaneCurve, PlaneError, PointCluster,
                    product_violation, quadratic_transform,
                    solve_multiplicity_system, verify_config_table)

_E_NAMES = ("E1", "E2", "E3", "E4", "E5")


def _load() -> dict:
    with resources.files("godeaux3.fixtures").joinpath("config_tables.json").open() as fh:
        return json.load(fh)


_DATA = _load()


def _rows_from_json(rows_json) -> tuple[PlaneCurve, ...]:
    return tuple(
        PlaneCurve(r["name"], r["degree"], tuple(r["mults"]), r.get("virtual", False))
        for r in rows_json)


def _gram_14pt(with_fh: bool) -> dict:
    # intersection numbers of the branch curves on the quotient surface
    gram: dict[tuple[str, str], int] = {("B0", "B0"): -6}
    for e in _E_NAMES:
        gram[(e, e)] = -3
        gram[("B0", e)] = 0
    for i, a in enumerate(_E_NAMES):
        for b in _E_NAMES[i + 1:]:
            gram[(a, b)] = 0
    if with_fh:
        for x in ("F", "H"):
            gram[(x, x)] = -3
            gram[("B0", x)] = 0
            for e in _E_NAMES:
                gram[(e, x)] = 0
        gram[("F", "H")] = 0
    return gram


def table_8pt(key: str) -> ConfigTable:
    data = _DATA["tables_8pt"][key]
    cluster = PointCluster(tuple(data["points"]))
    rows = _rows_from_json(data["rows"])
    gram = {tuple(k.split(",")): v for k, v in data["pairs"].items()}
    gram.update({(n, n): v for n, v in data["self"].items()})
    return ConfigTable(cluster, rows,
                       weights={"B0": 2, **{e: 1 for e in _E_NAMES}},
                       totals=tuple(data["totals"]), gram=gram)


def anticanonical_pairing(table: ConfigTable) -> dict[str, int]:
    """3d - sum(m) per row: the pairing against the genus-one pencil."""
    return {r.name: 3 * r.degree - sum(r.mults) for r in table.rows}


def check_8pt_pairings(key: str) -> bool:
    table = table_8pt(key)
    expected = _DATA["tables_8pt"][key]["pencil_pairing"]
    return anticanonical_pairing(table) == expected


def table_14pt(variant: str | None) -> ConfigTable:
    """The fourteen-point table, optionally with the F/H rows of a variant."""
    base = _DATA["base_14pt"]
    cluster = PointCluster(tuple(base["points"]))
    rows = list(_rows_from_json(base["rows"]))
    with_fh = variant is not None
    if with_fh:
        var = _DATA["fh_variants"][variant]
        rows.append(PlaneCurve("F", var["F"]["degree"], tuple(var["F"]["mults"]),
                               var["F"].get("virtual", False)))
        rows.append(PlaneCurve("H", var["H"]["degree"], tuple(var["H"]["mults"]),
                               var["H"].get("virtual", False)))
    weights = {"B0": 2, **{e: 1 for e in _E_NAMES}}
    return ConfigTable(cluster, tuple(rows), weights=weights,
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
    naming r, recomputed with the mutated row; and the proximity inequalities
    of the mutated row.  Products are resolved by row name, so the names must
    be unique.  Mutants are flagged virtual, as in the full check, and
    ``proximity_ok`` accepts every virtual row, so the proximity check never
    rejects a mutant here, just as it never did there: an empty sweep
    certifies the column totals and declared products, not the proximity
    inequalities.
    """
    ok, violations = verify_config_table(table)
    if not ok:
        raise PlaneError(f"table fails before mutation: {violations}")
    rows = {r.name: r for r in table.rows}
    if len(rows) != len(table.rows):
        raise PlaneError("row names are not unique")
    products: dict[str, list] = {name: [] for name in rows}
    for (a, b), expected in sorted(table.gram.items()):
        if a == b:  # first: a +-1 mutant moves its own square by an odd number
            products[a].insert(0, (a, b, expected))
        else:
            products[a].append((a, b, expected))
            products[b].append((a, b, expected))

    def passes(mutated: PlaneCurve) -> bool:
        now = {**rows, mutated.name: mutated}
        return table.cluster.proximity_ok(mutated) and not any(
            product_violation(a, b, now[a], now[b], expected)
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


# -- the two B_0 option tables and their index-theorem filters -------------------


def b0_options_deepest() -> dict:
    """Distribution of B_0 against the contracted cycles in the deepest branch.

    The vanishing of the fourth adjoint forces 2 B_0.Z'' + B_0.Z''' = 4; the
    index theorem against the genus-one pencil (square 1) removes the option
    with B_0.Z''' = 4 and pins B_0 to the pencil class when B_0.Z'' = 2.
    """
    b0k, n_cycles = 4, 3
    options = []
    for z2 in range(0, 3):
        z3 = 4 - 2 * z2
        if z3 < 0:
            continue
        pairing = 3 - z2  # B_0 . (genus-one pencil)
        square = -6 + n_cycles + z2 * z2 + z3 * z3
        verdict = "excluded" if square > pairing ** 2 else (
            "pinned-to-pencil" if square == pairing ** 2 else "open")
        options.append({"B0.Z''": z2, "B0.Z'''": z3, "pairing": pairing,
                        "square": square, "verdict": verdict})
    assert b0k == 4
    return {"options": options}


def b0_options_middle() -> dict:
    """Same analysis one level up: 2 B_0 . sum Z' + B_0 . Z'' = 6."""
    options = []
    for zp1 in range(0, 4):
        for zp2 in range(0, zp1 + 1):
            z2 = 6 - 2 * (zp1 + zp2)
            if z2 < 0:
                continue
            pairing = 4 - (zp1 + zp2)
            square = -6 + 2 + zp1 ** 2 + zp2 ** 2 + z2 ** 2
            verdict = "excluded" if square > pairing ** 2 else (
                "pinned-to-pencil" if square == pairing ** 2 else "open")
            options.append({"B0.Z'1": zp1, "B0.Z'2": zp2, "B0.Z''": z2,
                            "pairing": pairing, "square": square, "verdict": verdict})
    return {"options": options}


def elim_l_noa() -> Elimination:
    """Deepest branch, option a: some E'-curve would get square 13 > 9."""
    # (E'_1 + E'_2).Z''' = 6 while 2 E'_k.Z'' + E'_k.Z''' = 4 allows
    # E'_k.Z''' in {0, 2, 4}: some curve takes the value 4.
    splits = [(b1, 6 - b1) for b1 in (0, 2, 4) if (6 - b1) in (0, 2, 4)]
    worst = max(max(p) for p in splits)
    square = -3 + (4 - worst) ** 2 // 4 + worst ** 2
    pairing = 3 - (4 - worst) // 2
    cap = pairing ** 2 * 1
    return Elimination(
        "l.noa", str(square), str(cap),
        "contradiction" if square > cap else "survives",
        (f"(E'_1+E'_2).Z''' = 6 splits as {splits}; some E' has E'.Z''' = {worst}",
         f"its image has square {square} > {cap}, violating the index theorem"),
    )


def elim_p_no3lirr() -> Elimination:
    """Deepest branch, option b: both free E'-curves need plane degree >= 3."""
    budget = 21 - 2 * 9  # degree budget after normalizing B_0 to the 9-solution
    demands = []
    trace = []
    for z2, z3 in ((2, 0), (1, 2)):
        square = -3 + z2 * z2 + z3 * z3
        pairing = 3 - z2
        sols = solve_multiplicity_system(square, pairing, 8)
        if not sols:
            trace.append(f"(E'.Z'', E'.Z''') = ({z2},{z3}): no plane model at all")
            continue
        dmin = min(d for d, _ in sols)
        demands.append(dmin)
        trace.append(f"(E'.Z'', E'.Z''') = ({z2},{z3}): min degree {dmin}, "
                     f"solutions {[(d, s) for d, s in sols]}")
    # the third option (0, 4) is the index-theorem kill of l.noa
    lhs = 2 * min(demands)
    return Elimination(
        "p.no3lirr", str(lhs), str(budget),
        "contradiction" if lhs > budget else "survives",
        tuple(trace) + (
            f"E'_1 and E'_2 are both uncontracted: degrees sum to >= {lhs} > {budget}",),
    )


def elim_p_3lred() -> Elimination:
    """Deepest branch with a reducible cycle: B_0 becomes numerically trivial."""
    square = -6 + 1 + 1 + 4  # B_0.Z_1 = B_0.Z_2 = 1, B_0.Z_3 = 2
    b0_n3 = 0 + 3 * 4 - 3 * (1 + 1 + 2)  # B_0.N_3 = B_0.N + 3 B_0.K - 3 B_0(sum Z)
    ok = square == 0 and b0_n3 == 0
    return Elimination(
        "p.3lred", str(square), "0",
        "contradiction" if ok else "failed",
        ("after contracting the cycles B_0 has square 0 and meets the pencil in 0",
         "index theorem and rationality force B_0 = 0, impossible for a curve"),
    )


def elim_l_nob() -> Elimination:
    """Middle branch, option b: some E' has E'.Z'' = 3 and square 6 > 4."""
    # (E'_1+E'_2+E'_3).Z'' = 5 with each 2 E'.(sum Z') + E'.Z'' = 3, so each
    # E'.Z'' is odd in {1, 3}; 5 = 1 + 1 + 3 forces a curve with the value 3.
    values = [combo for combo in product((1, 3), repeat=3) if sum(combo) == 5]
    worst = max(max(c) for c in values)
    square = -3 + worst ** 2
    pairing = 2 - 0
    cap = pairing ** 2
    return Elimination(
        "l.nob", str(square), str(cap),
        "contradiction" if square > cap else "survives",
        (f"odd splits of 5: {values}; some E'.Z'' = {worst}",
         f"its image has square {square} > {cap} against the index theorem"),
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
    budget = 18 - 2 * 8
    for split in range(budget + 1):
        for d123 in _partitions(split, 3):
            for d45 in _partitions(budget - split, 2):
                tup = (8,) + d123 + d45
                if any(d > 2 for d in d123):
                    continue
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


def _partitions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _partitions(total - first, slots - 1):
            if rest and rest[0] > first and slots > 1:
                continue
            yield (first,) + rest


def exceptional_curve_solutions() -> dict:
    """Plane models of the two exceptional (-3)-curves F', H' and their pairs.

    Solves (d - 2 m_2)^2 + m_4^2 + m_5^2 + m_6^2 = 2 with m_2 + m_3 = d,
    m_4 + m_5 + m_6 = d, m_7 = m_2, m_8 = m_3, m_14 = 1, then keeps the pairs
    with product 0.
    """
    singles = []
    for d in range(0, 3):
        for m2 in range(0, d + 1):
            for m456 in product(range(-1, 3), repeat=3):
                if sum(m456) != d:
                    continue
                if (d - 2 * m2) ** 2 + sum(m * m for m in m456) != 2:
                    continue
                m3 = d - m2
                mults = [0] * 14
                mults[1], mults[2] = m2, m3
                mults[3:6] = m456
                mults[6], mults[7] = m2, m3
                mults[13] = 1
                curve = PlaneCurve(f"d{d}", d, tuple(mults), virtual=True)
                if curve.self_int() != -3:
                    continue
                kind = {2: "conic", 1: "line", 0: "contracted"}[d]
                singles.append((kind, curve))
    pairs = []
    for i, (kind1, c1) in enumerate(singles):
        for kind2, c2 in singles[i:]:
            if c1.dot(c2) == 0:
                pairs.append(tuple(sorted((kind1, kind2))))
    pair_kinds = sorted(set(pairs))
    return {
        "degrees": sorted({c.degree for _, c in singles}, reverse=True),
        "by_kind": {k: sum(1 for kk, _ in singles if kk == k)
                    for k in ("conic", "line", "contracted")},
        "admissible_pairs": pair_kinds,
    }


# -- forced planar points and the mod-3 eigenvalue audit -------------------------


def forced_proximities(table: ConfigTable) -> list[tuple[str, str]]:
    """Proximity edges read off the virtual exceptional rows.

    A virtual row of degree 0 with a single entry -1 at P is the strict
    transform of the exceptional curve over P; its +1 entries are the points
    proximate to P.
    """
    edges = []
    pts = table.cluster.points
    for row in table.rows:
        if not row.virtual or row.degree != 0:
            continue
        negatives = [i for i, m in enumerate(row.mults) if m < 0]
        if len(negatives) != 1 or row.mults[negatives[0]] != -1:
            continue
        parent = pts[negatives[0]]
        for i, m in enumerate(row.mults):
            if m == 1:
                edges.append((pts[i], parent))
    return edges


def is_forced_planar(table: ConfigTable, point: str) -> tuple[bool, list[str]]:
    """True when no point of the cluster can serve as a proximity parent."""
    pts = table.cluster.points
    pi = pts.index(point)
    edges = forced_proximities(table)
    reasons = []
    exceptional_row = {}
    for row in table.rows:
        if row.virtual and row.degree == 0:
            negs = [i for i, m in enumerate(row.mults) if m == -1]
            if len(negs) == 1 and sum(1 for m in row.mults if m < 0) == 1:
                exceptional_row[pts[negs[0]]] = row
    for cand in pts:
        if cand == point:
            continue
        ok = True
        # every non-virtual row must allow m_cand >= m_point (+ forced children)
        ci = pts.index(cand)
        for row in table.rows:
            if row.virtual:
                continue
            forced_kids = sum(row.mults[pts.index(ch)]
                              for ch, par in edges if par == cand and ch != point)
            if row.mults[ci] < row.mults[pi] + max(forced_kids, 0):
                ok = False
                break
        if ok and cand in exceptional_row:
            if exceptional_row[cand].mults[pi] != 1:
                ok = False
                reasons.append(f"{point} absent from the exceptional row over {cand}")
        if ok:
            # adding point > cand must not close a cycle with forced edges
            reach = {cand}
            frontier = [cand]
            while frontier:
                cur = frontier.pop()
                for ch, par in edges:
                    if ch == cur and par not in reach:
                        reach.add(par)
                        frontier.append(par)
            if point in reach:
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
        if all(sum(w * nu.get(name, 0) for name, w in eq.items()) % 3 == 0
               for _, eq in equations):
            from .plane import BranchAssignment

            BranchAssignment(tuple(sorted(nu.items())))  # conjugacy invariant
            solutions.append(dict(nu))
    for label, eq in equations:
        terms = "+".join(f"{w}*{n}" for n, w in sorted(eq.items()) if w)
        trace.append(f"{label}: {terms} = 0 mod 3")
    verdict = "contradiction" if not solutions else "survives"
    trace.append(f"{len(solutions)} admissible exponent assignments")
    return Elimination("eigenvalue-audit", str(len(solutions)), "0", verdict,
                       tuple(trace), tuple(tuple(sorted(s.items())) for s in solutions))


# -- the three configuration eliminations ---------------------------------------


def elim_p_3l1() -> Elimination:
    """Two-lines configuration: exponents cannot exist at P_2 and P_3."""
    table = table_14pt("lines-lines")
    ok, violations = verify_config_table(table)
    if not ok:
        return Elimination("p.3l-1", "table", "valid", "failed", tuple(violations))
    derivations = []
    for p in ("P2", "P3"):
        planar, why = is_forced_planar(table, p)
        if not planar:
            return Elimination("p.3l-1", p, "planar", "failed", tuple(why))
        derivations.extend(why)
    audit = eigenvalue_audit(table, ["P2", "P3"])
    return Elimination("p.3l-1", audit.lhs, audit.rhs, audit.verdict,
                       tuple(derivations) + audit.trace)


def _transformed_elimination(prop_id: str, variant: str) -> Elimination:
    source = table_14pt(variant)
    ok, violations = verify_config_table(source)
    if not ok:
        return Elimination(prop_id, "table", "valid", "failed", tuple(violations))
    _, rows = quadratic_transform(source.cluster, list(source.rows), ("P1", "P2", "P3"))
    fixture = _DATA["transformed_14pt"][variant]
    expected = _rows_from_json(fixture["rows"])
    for got, want in zip(rows, expected):
        if (got.degree, got.mults) != (want.degree, want.mults):
            return Elimination(prop_id, got.name, "fixture", "failed",
                               (f"transformed row {got.name} differs from the fixture",))
    transformed = ConfigTable(source.cluster, tuple(rows))
    planar, why = is_forced_planar(transformed, "P6")
    if not planar:
        return Elimination(prop_id, "P6", "planar", "failed", tuple(why))
    audit = eigenvalue_audit(transformed, ["P6"])
    return Elimination(prop_id, audit.lhs, audit.rhs, audit.verdict,
                       tuple(why) + audit.trace)


def elim_p_3l12() -> Elimination:
    return _transformed_elimination("p.3l-12", "contracted-conic")


def elim_p_3l13() -> Elimination:
    return _transformed_elimination("p.3l-13", "contracted-contracted")


def lines_to_contracted_move() -> bool:
    """The two-lines table maps onto the line + contracted one under the
    quadratic transformation based at P_3, P_4, P_8 (up to the F/H naming)."""
    table = table_14pt("lines-lines")
    _, rows = quadratic_transform(table.cluster, list(table.rows), ("P3", "P4", "P8"))
    by_name = {r.name: r for r in rows}
    h_new = by_name["H"]
    return h_new.degree == 0 and sorted(h_new.mults) == sorted(
        (0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1))


def torsion_class_search(variant: str) -> list:
    """Try to realize the torsion class on the configuration's lattice model.

    Searches all eigenvalue assignments (two of the five exceptional curves
    on one side, the F/H pair either way) for one making the weighted branch
    class divisible by 3; the printed configurations admit none, which is a
    divisor-class strengthening of the mod-3 audit.
    """
    from itertools import combinations

    from .cover import CaseInvalidError, TripleCoverData
    from .lattice import IntersectionLattice

    table = table_14pt(variant)
    lat = IntersectionLattice.plane_blow_up(14)
    cls = {r.name: lat.divisor((r.degree,) + tuple(-m for m in r.mults))
           for r in table.rows}
    found = []
    for swap in (False, True):
        f, h = (cls["H"], cls["F"]) if swap else (cls["F"], cls["H"])
        for plus in combinations(_E_NAMES, 2):
            weighted = cls["B0"] + f + 2 * h
            for e in _E_NAMES:
                weighted = weighted + (1 if e in plus else 2) * cls[e]
            if any(c % 3 for c in weighted.coeffs):
                continue
            l1 = lat.divisor(tuple(c // 3 for c in weighted.coeffs))
            try:
                found.append(TripleCoverData(l1, weighted))
            except CaseInvalidError:
                continue
    return found

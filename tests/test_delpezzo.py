import copy
import os
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest

from godeaux3 import delpezzo as dp
from godeaux3.adjoint import ladder_counts
from godeaux3.fibration import B0_SQ, EXC_SQ
from godeaux3.plane import (DEL_PEZZO_POINTS, ConfigTable, PlaneCurve, PlaneError,
                            PointCluster, quadratic_transform, solve_multiplicity_system,
                            verify_config_table)


def full_recheck_sweep(table):
    """Reference sweep: every +-1 mutant re-verifies the whole table."""
    unsharp = []
    assert verify_config_table(table)[0]
    for ri, row in enumerate(table.rows):
        for ci in range(len(row.mults) + 1):
            for delta in (1, -1):
                rows = list(table.rows)
                if ci == len(row.mults):
                    if row.degree + delta < 0:
                        continue
                    mutated = PlaneCurve(row.name, row.degree + delta, row.mults, True)
                    where = "degree"
                else:
                    m = list(row.mults)
                    m[ci] += delta
                    mutated = PlaneCurve(row.name, row.degree, tuple(m), True)
                    where = table.cluster.points[ci]
                rows[ri] = mutated
                if verify_config_table(table._replace(rows=tuple(rows)))[0]:
                    unsharp.append(f"{row.name}@{where}{delta:+d}")
    return unsharp


def _weakened():
    base = dp.table_14pt("lines-lines")
    yield "gram emptied", base._replace(gram={})
    # a +-1 mutant moves its row's square by an odd number, so with the squares
    # declared no mutant survives; without totals, drop them too
    yield "totals emptied", base._replace(
        totals=(), gram={(a, b): v for (a, b), v in base.gram.items() if a != b})
    yield "F products removed", base._replace(
        gram={k: v for k, v in base.gram.items() if "F" not in k})
    yield "8pt gram emptied", dp.table_8pt("8-1-1-0-0-0")._replace(gram={})


def test_all_printed_tables_pass():
    for name, table in dp.all_printed_tables():
        ok, violations = verify_config_table(table)
        assert ok, (name, violations)


def test_weighted_totals_values():
    table = dp.table_14pt(None)
    assert table.totals == (6, 6, 6, 6, 6, 6, 6, 6, 5, 4, 4, 3, 3, 0)


def test_pairings_on_8pt_tables():
    for key in ("8-2-0-0-0-0", "8-1-1-0-0-0", "8-1-0-0-1-0"):
        assert dp.check_8pt_pairings(key, dp.table_8pt(key))


@pytest.mark.parametrize("variant", ["lines-lines", "contracted-conic",
                                     "contracted-line", "contracted-contracted"])
def test_perturbation_sweep_14pt(variant):
    assert dp.perturbation_sweep(dp.table_14pt(variant)) == []


def test_perturbation_sweep_8pt():
    assert dp.perturbation_sweep(dp.table_8pt("8-2-0-0-0-0")) == []


@pytest.mark.parametrize("name,table", dp.all_printed_tables())
def test_incremental_sweep_matches_full_recheck_on_printed_tables(name, table):
    assert dp.perturbation_sweep(table) == full_recheck_sweep(table)


@pytest.mark.parametrize("name,table", list(_weakened()))
def test_incremental_sweep_matches_full_recheck_on_weakened_tables(name, table):
    # each weakened table leaves mutants unpinned, so a check the incremental
    # sweep skipped or misread would show up as a different list
    unsharp = dp.perturbation_sweep(table)
    assert unsharp
    assert unsharp == full_recheck_sweep(table)


def test_sweep_rejects_failing_tables_and_repeated_row_names():
    table = dp.table_14pt("lines-lines")
    with pytest.raises(PlaneError, match="fails before mutation"):
        dp.perturbation_sweep(table._replace(totals=(0,) * len(table.totals)))
    twice = ConfigTable(table.cluster, table.rows + table.rows[-1:], {}, (), {})
    with pytest.raises(PlaneError, match="not unique"):
        dp.perturbation_sweep(twice)


def test_table_check_rejects_a_repeated_row_name():
    # ConfigTable.row finds the first F, and F carries no weight in the column
    # totals, so a second F row escapes every check but the name check
    table = dp.table_14pt("contracted-conic")
    extra = PlaneCurve("F", 5, (1,) * len(table.cluster.points))
    ok, violations = verify_config_table(table._replace(rows=table.rows + (extra,)))
    assert not ok
    assert violations == ["rows: names ['F'] are not unique"]


def test_transformed_tables_match_fixtures():
    for variant in ("contracted-conic", "contracted-contracted"):
        elim = {"contracted-conic": dp.elim_p_3l12,
                "contracted-contracted": dp.elim_p_3l13}[variant](dp.table_14pt(variant))
        assert elim.verdict == "contradiction"


# The typed tables the option enumeration replaced, kept as references: per
# option its values against the cycles, then its pencil pairing and square, typed
# as literal pairing - sum and literal square + sum (C.Z)^2.
B0_DEEPEST = [((z2, 4 - 2 * z2), 3 - z2, -6 + 3 + z2 ** 2 + (4 - 2 * z2) ** 2)
              for z2 in range(0, 3)]
B0_MIDDLE = [((a, b, 6 - 2 * (a + b)), 4 - (a + b),
              -6 + 2 + a ** 2 + b ** 2 + (6 - 2 * (a + b)) ** 2)
             for a in range(0, 4) for b in range(0, a + 1) if 6 - 2 * (a + b) >= 0]
E_DEEPEST_LIVE = [(z2, z3, -3 + z2 * z2 + z3 * z3, 3 - z2) for z2, z3 in ((2, 0), (1, 2))]


# the cycles per level of the deepest and the middle ladder at l = 1
DEEPEST, MIDDLE = ladder_counts("s.3l", 1), ladder_counts("s.3l-1", 1)


# the totals 2 C.(level before the last) + C.(last level) as printed, which
# ``options`` computes from the ladder identity
PRINTED_TOTALS = {("B0", (3, 0, 1, 1)): 4, ("B0", (2, 2, 1)): 6,
                  ("E'", (3, 0, 1, 1)): 4, ("E'", (2, 2, 1)): 3}


@pytest.mark.parametrize("curve, counts", list(PRINTED_TOTALS))
def test_options_meet_the_printed_totals(curve, counts):
    *before, last = dp._columns(curve, counts)
    opts = dp.options(curve, counts)
    assert opts
    for o in opts:
        assert 2 * sum(o[c] for c in before) + o[last] == PRINTED_TOTALS[curve, counts]


def _typed(options):
    return [(tuple(v for k, v in o.items() if ".Z" in k), o["pairing"], o["square"])
            for o in options]


def test_b0_option_tables():
    deep = dp.options("B0", DEEPEST)
    assert _typed(deep) == B0_DEEPEST
    assert [(o["B0.Z''"], o["B0.Z'''"], o["verdict"]) for o in deep] == [
        (0, 4, "excluded"), (1, 2, "open"), (2, 0, "pinned-to-pencil")]
    assert _typed(dp.options("B0", MIDDLE)) == B0_MIDDLE
    mid = {(o["B0.Z'1"], o["B0.Z'2"], o["B0.Z''"]): o["verdict"]
           for o in dp.options("B0", MIDDLE)}
    assert mid[(3, 0, 0)] == "excluded"
    assert mid[(1, 0, 4)] == "excluded"
    assert mid[(0, 0, 6)] == "excluded"
    assert mid[(2, 1, 0)] == "pinned-to-pencil"
    assert mid[(1, 1, 2)] == "open"


def test_e_prime_option_tables():
    deep, mid = dp.options("E'", DEEPEST), dp.options("E'", MIDDLE)
    assert {o["E'.Z'''"] for o in deep} == {0, 2, 4}
    assert {o["E'.Z''"] for o in mid} == {1, 3}
    # E' meets no Z_i; its forced totals are 2 E'.Z'' + E'.Z''' = 4 and
    # 2 E'.(sum Z') + E'.Z'' = 3
    assert all(2 * o["E'.Z''"] + o["E'.Z'''"] == 4 for o in deep)
    assert all(2 * (o["E'.Z'1"] + o["E'.Z'2"]) + o["E'.Z''"] == 3 for o in mid)
    live = [(o["E'.Z''"], o["E'.Z'''"], o["square"], o["pairing"])
            for o in reversed(deep) if o["verdict"] != "excluded"]
    assert live == E_DEEPEST_LIVE  # p.no3lirr's two systems, in its order


def test_contraction_rule():
    assert dp.contraction(EXC_SQ, (0, 0, 3)) == (6, 2)  # l.nob's curve
    assert dp.contraction(B0_SQ, (1, 1, 2)) == (0, 0)  # p.3lred's B_0
    # a (-1)-curve meeting one (-1)-cycle once becomes a 0-curve of degree 2
    assert dp.contraction(-1, (1,)) == (0, 2)
    assert dp.contraction(B0_SQ, ()) == (B0_SQ, 2 + B0_SQ)


def test_index_theorem_kills():
    noa, nob = dp.elim_forced_split("l.noa", DEEPEST), dp.elim_forced_split("l.nob", MIDDLE)
    assert (noa.lhs, noa.rhs, noa.verdict) == ("13", "9", "contradiction")
    assert (nob.lhs, nob.rhs, nob.verdict) == ("6", "4", "contradiction")
    assert noa.trace[0] == ("(E'_1+E'_2).Z''' = 6 splits as [(2, 4), (4, 2)]; "
                            "some E' has E'.Z''' = 4")
    assert nob.trace[0] == "odd splits of 5: [(1, 1, 3), (1, 3, 1), (3, 1, 1)]; some E'.Z'' = 3"
    assert dp.elim_p_3lred().verdict == "contradiction"


def test_forced_split_survives_when_a_split_avoids_every_excluded_value(monkeypatch):
    # two deepest E'-curves adding up to 4 could both take the open value 2
    monkeypatch.setitem(dp._SPLITS, "x", (2, 4, "{splits} {worst}", ""))
    e = dp.elim_forced_split("x", DEEPEST)
    assert e.trace[0] == "[(0, 4), (2, 2), (4, 0)] 2"
    assert (e.lhs, e.rhs, e.verdict) == ("2", "4", "survives")
    # adding up to 8, both take the excluded value 4
    monkeypatch.setitem(dp._SPLITS, "x", (2, 8, "{splits} {worst}", ""))
    assert dp.elim_forced_split("x", DEEPEST).verdict == "contradiction"


def test_p_no3lirr_budget():
    # the (2, 2, 8) system comes from e.sys; the (1, 1, 8) one is solved here
    e = dp.elim_p_no3lirr({(2, 2, 8): solve_multiplicity_system(2, 2, 8)}, 9, DEEPEST)
    assert e.verdict == "contradiction"
    assert (e.lhs, e.rhs) == ("6", "3")
    assert dp.elim_p_no3lirr({}, 9, DEEPEST) == e
    # B_0 at a state of degree 7 would leave a budget the two degrees fit in
    assert dp.elim_p_no3lirr({}, 7, DEEPEST).verdict == "survives"


def test_p_no3lirr_refuses_a_system_no_option_asks_for():
    # e.sys solves (2, 2, 8); a stale key would otherwise drop its read silently
    with pytest.raises(PlaneError, match=r"\(2, 2, 9\)"):
        dp.elim_p_no3lirr({(2, 2, 9): solve_multiplicity_system(2, 2, 8)}, 9, DEEPEST)


def test_sixtuples():
    st = dp.sixtuple_enumerate()
    assert st["kept"] == [(8, 2, 0, 0, 0, 0), (8, 1, 1, 0, 0, 0), (8, 1, 0, 0, 1, 0)]
    excluded = {t for t, _ in st["excluded"]}
    assert (8, 0, 0, 0, 1, 1) in excluded
    # the budget sum d_i = 2 alone keeps every d_i <= 2
    assert all(sum(t[1:]) == 2 and max(t[1:]) <= 2 for t in excluded | set(st["kept"]))


def test_degree_budget():
    assert dp.degree_budget(7) == 21
    assert dp.degree_budget(6) == 18
    with pytest.raises(PlaneError):
        dp.degree_budget(5)


def test_degree_budgets_reach_both_nodes(monkeypatch):
    # p.no3lirr and the six-tuples read degree_budget, which test_degree_budget checks
    monkeypatch.setattr(dp, "degree_budget", lambda k: 3 * k + 1)
    assert dp.elim_p_no3lirr({}, 9, DEEPEST).rhs == "4"
    kept = dp.sixtuple_enumerate()["kept"]
    assert kept and all(sum(t[1:]) == 3 for t in kept)


def test_exceptional_curve_solutions(monkeypatch):
    sols = dp.exceptional_curve_solutions()
    assert sols["by_kind"] == {"conic": 3, "line": 6, "contracted": 6}
    assert sols["admissible_pairs"] == [
        ("conic", "contracted"), ("contracted", "contracted"),
        ("contracted", "line"), ("line", "line")]
    # the search's curves are those of a brute force over d <= 6 and |m_i| <= 3
    found = []

    class Recorded(PlaneCurve):
        def self_int(self):
            sq = super().self_int()
            if sq == EXC_SQ:
                found.append((self.degree, self.mults))
            return sq

    monkeypatch.setattr(dp, "PlaneCurve", Recorded)
    assert dp.exceptional_curve_solutions() == sols
    brute = set()
    for d in range(0, 7):
        for m2, m4, m5 in product(range(-3, 4), repeat=3):
            m3, m6 = d - m2, d - m4 - m5
            mults = (0, m2, m3, m4, m5, m6, m2, m3, 0, 0, 0, 0, 0, 1)
            if max(abs(m3), abs(m6)) <= 3 and PlaneCurve("C", d, mults, True).self_int() == EXC_SQ:
                brute.add((d, mults))
    assert len(found) == len(set(found)) == 15 and set(found) == brute
    assert Counter(dp.KINDS[d] for d, _ in brute) == sols["by_kind"]


def test_forced_planar_points():
    table = dp.table_14pt("lines-lines")
    for p in ("P2", "P3"):
        planar, _ = dp.is_forced_planar(table, p)
        assert planar
    # P7 is proximate to P1 in this configuration, hence not forced planar
    planar, why = dp.is_forced_planar(table, "P7")
    assert not planar


def test_forced_proximities_from_virtual_rows():
    table = dp.table_14pt("contracted-contracted")
    edges = set(dp.forced_proximities(table))
    assert ("P4", "P5") in edges  # the contracted row over P5 passes through P4
    assert ("P5", "P6") in edges  # and the one over P6 through P5


def test_eigenvalue_audit_contradictions():
    e1 = dp.elim_p_3l1(dp.table_14pt("lines-lines"))
    assert e1.verdict == "contradiction"
    assert any("P2: 3*B0+1*E1+1*E4+1*F" in line for line in e1.trace)
    assert any("P3: 3*B0+1*E1+1*E5+1*H" in line for line in e1.trace)
    for fn, variant in ((dp.elim_p_3l12, "contracted-conic"),
                        (dp.elim_p_3l13, "contracted-contracted")):
        e = fn(dp.table_14pt(variant))
        assert e.verdict == "contradiction"
        assert any("P6: 3*B0+1*H" in line for line in e.trace)


def _audited_table(variant):
    """The table an audit solves on: the printed one for the two lines, else the
    printed one transformed at the fixture's base."""
    table = dp.table_14pt(variant)
    if variant == "lines-lines":
        return table
    base = tuple(dp._DATA["transformed_14pt"][variant]["base"])
    return table._replace(rows=tuple(quadratic_transform(table.cluster, list(table.rows), base)))


def test_audit_admits_solutions_when_unconstrained():
    # the degree equation alone is solvable on each audited table, and the equations
    # at the audit's own planar points leave nothing
    for variant, points, free in (("lines-lines", ["P2", "P3"], 32),
                                  ("contracted-conic", ["P6"], 22),
                                  ("contracted-contracted", ["P6"], 20)):
        table = _audited_table(variant)
        unconstrained = dp.eigenvalue_audit(table, [])
        assert (unconstrained.verdict, len(unconstrained.survivors)) == ("survives", free)
        assert dp.eigenvalue_audit(table, points).survivors == ()
    # on the two lines neither planar point decides alone
    table = _audited_table("lines-lines")
    assert [len(dp.eigenvalue_audit(table, [p]).survivors) for p in ("P2", "P3")] == [8, 8]


def test_lines_to_contracted_move():
    assert dp.lines_to_contracted_move(dp.table_14pt("lines-lines"))


def test_degree_budget_invariant_under_moves():
    # 2 d_0 + sum d_i over the branch rows stays 18 through the quadratic move
    from godeaux3.plane import quadratic_transform

    table = dp.table_14pt("contracted-conic")
    weights = {"B0": 2, **{e: 1 for e in ("E1", "E2", "E3", "E4", "E5")}}
    before = sum(weights.get(r.name, 0) * r.degree for r in table.rows)
    rows = quadratic_transform(table.cluster, list(table.rows), ("P1", "P2", "P3"))
    after = sum(weights.get(r.name, 0) * r.degree for r in rows)
    assert before == after == 18


def _inline_is_forced_planar(table, point):
    """``is_forced_planar`` with the proximity inequality written out inline, kept
    as a reference."""
    pts = table.cluster.points
    pi = pts.index(point)
    edges = dp.forced_proximities(table)
    reasons = []
    exceptional_row = dict(dp._exceptional_rows(table))
    for cand in pts:
        if cand == point:
            continue
        ok = True
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
            try:
                PointCluster(pts, (*edges, (point, cand)))
            except PlaneError:
                ok = False
                reasons.append(f"{point} above {cand} would close a proximity cycle")
        if ok:
            return False, [f"{cand} admissible as parent of {point}"]
    reasons.append(f"no admissible parent: {point} is planar")
    return True, reasons


def _audited_tables():
    """The printed tables, and the fourteen-point ones moved by the quadratic
    transforms the audits use, wherever the base is admissible."""
    printed = dp.all_printed_tables()
    yield from printed
    for name, table in (t for t in printed if t[0].startswith("14pt")):
        for base in (("P1", "P2", "P3"), ("P3", "P4", "P8")):
            try:
                rows = quadratic_transform(table.cluster, list(table.rows), base)
            except PlaneError:
                continue  # 4 of the 5 tables refuse the second base
            yield f"{name}@{base}", table._replace(rows=tuple(rows))


def test_forced_planar_points_match_the_inline_inequality():
    pairs = [(table, p) for _, table in _audited_tables() for p in table.cluster.points]
    verdicts = [dp.is_forced_planar(table, p) for table, p in pairs]
    assert verdicts == [_inline_is_forced_planar(table, p) for table, p in pairs]
    assert (len(pairs), sum(planar for planar, _ in verdicts)) == (178, 42)


def test_one_constant_counts_the_eight_points():
    # delpezzo imports the constant by name, so re-import it in a fresh interpreter
    # after shifting plane's copy
    code = (
        "import importlib\n"
        "from godeaux3 import delpezzo, plane\n"
        "plane.DEL_PEZZO_POINTS += 1\n"
        "importlib.reload(delpezzo)\n"
        "from godeaux3.report import run\n"
        "print(len(plane.state_from_solution(3, {1: 7})[1]), delpezzo._PENCIL_SQ,\n"
        "      run('all').verdict)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dp.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert DEL_PEZZO_POINTS == 8
    assert out == ["9", "0", "failed"]


@pytest.mark.parametrize("width, changed", [
    (9, slice(None)),  # a zero appended to every row moves no total or product
    (7, slice(1)),  # one row an entry short
])
def test_rows_must_cover_the_cluster(monkeypatch, width, changed):
    from godeaux3.report import run

    data = copy.deepcopy(dp._DATA)
    rows = data["tables_8pt"]["8-1-0-0-1-0"]["rows"][changed]
    for r in rows:
        r["mults"] = (r["mults"] + [0])[:width]
    monkeypatch.setattr(dp, "_DATA", data)
    ok, violations = verify_config_table(dp.table_8pt("8-1-0-0-1-0"))
    assert not ok
    assert violations == [f"{r['name']}: {width} multiplicities for 8 points" for r in rows]
    result = run("tables.printed").results["tables.printed"]
    assert result.status == "failed"
    assert not any("exception" in line for line in result.trace)


@pytest.mark.parametrize("width", [7, 9])
def test_totals_must_cover_the_cluster(monkeypatch, width):
    from godeaux3.report import run

    data = copy.deepcopy(dp._DATA)
    table = data["tables_8pt"]["8-1-0-0-1-0"]
    table["totals"] = (table["totals"] + [0])[:width]
    monkeypatch.setattr(dp, "_DATA", data)
    ok, violations = verify_config_table(dp.table_8pt("8-1-0-0-1-0"))
    assert not ok
    assert violations == [f"totals: {width} entries for 8 points"]
    report = run("all")
    result = report.results["tables.printed"]
    assert result.status == "failed" and report.verdict != "verified"
    assert not any("exception" in line for line in result.trace)


def test_transformed_rows_must_match_the_fixture_row_for_row(monkeypatch):
    data = copy.deepcopy(dp._DATA)
    fixture = data["transformed_14pt"]["contracted-conic"]
    fixture["rows"] = [r for r in fixture["rows"] if r["name"] not in ("F", "H")]
    monkeypatch.setattr(dp, "_DATA", data)
    e = dp.elim_p_3l12(dp.table_14pt("contracted-conic"))
    assert e.verdict == "failed"
    assert e.trace == ("transformed rows ['B0', 'E1', 'E2', 'E3', 'E4', 'E5', 'F', 'H'] "
                       "differ from the fixture's",)


def test_transform_is_based_where_the_fixture_says(monkeypatch):
    data = copy.deepcopy(dp._DATA)
    for fixture in data["transformed_14pt"].values():
        fixture["base"] = ["P4", "P5", "P6"]
    monkeypatch.setattr(dp, "_DATA", data)
    for elim, variant in ((dp.elim_p_3l12, "contracted-conic"),
                          (dp.elim_p_3l13, "contracted-contracted")):
        e = elim(dp.table_14pt(variant))
        assert e.verdict == "failed"
        assert e.trace == ("transformed row B0 differs from the fixture",)


def test_options_follow_the_counts():
    # three cycles before the last level: one column each, values nonincreasing
    opts = dp.options("B0", (2, 3, 1))
    assert [k for k in opts[0] if ".Z" in k] == ["B0.Z'1", "B0.Z'2", "B0.Z'3", "B0.Z''"]
    assert all(o["B0.Z'1"] >= o["B0.Z'2"] >= o["B0.Z'3"] for o in opts)
    assert all(2 * (o["B0.Z'1"] + o["B0.Z'2"] + o["B0.Z'3"]) + o["B0.Z''"] == 6 for o in opts)
    # total - 2 sum assumes one cycle on the last level and none in between
    for counts in ((2, 2, 2), (3, 1, 1, 1)):
        with pytest.raises(ValueError, match="one cycle on the last level"):
            dp.options("B0", counts)

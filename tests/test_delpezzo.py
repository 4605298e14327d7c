from dataclasses import replace

import pytest

from godeaux3 import delpezzo as dp
from godeaux3.plane import ConfigTable, PlaneCurve, PlaneError, verify_config_table


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
                if verify_config_table(replace(table, rows=tuple(rows)))[0]:
                    unsharp.append(f"{row.name}@{where}{delta:+d}")
    return unsharp


def _weakened():
    base = dp.table_14pt("lines-lines")
    yield "gram emptied", replace(base, gram={})
    # a +-1 mutant moves its row's square by an odd number, so with the squares
    # declared no mutant survives; without totals, drop them too
    yield "totals emptied", replace(
        base, totals=(), gram={(a, b): v for (a, b), v in base.gram.items() if a != b})
    yield "F products removed", replace(
        base, gram={k: v for k, v in base.gram.items() if "F" not in k})
    yield "8pt gram emptied", replace(dp.table_8pt("8-1-1-0-0-0"), gram={})


def test_all_printed_tables_pass():
    for name, table in dp.all_printed_tables():
        ok, violations = verify_config_table(table)
        assert ok, (name, violations)


def test_weighted_totals_values():
    table = dp.table_14pt(None)
    assert table.totals == (6, 6, 6, 6, 6, 6, 6, 6, 5, 4, 4, 3, 3, 0)


def test_pairings_on_8pt_tables():
    for key in ("8-2-0-0-0-0", "8-1-1-0-0-0", "8-1-0-0-1-0"):
        assert dp.check_8pt_pairings(key)


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
        dp.perturbation_sweep(replace(table, totals=(0,) * len(table.totals)))
    twice = ConfigTable(table.cluster, table.rows + table.rows[-1:])
    with pytest.raises(PlaneError, match="not unique"):
        dp.perturbation_sweep(twice)


def test_transformed_tables_match_fixtures():
    for variant in ("contracted-conic", "contracted-contracted"):
        elim = {"contracted-conic": dp.elim_p_3l12,
                "contracted-contracted": dp.elim_p_3l13}[variant]()
        assert elim.verdict == "contradiction"


def test_b0_option_tables():
    deep = dp.b0_options_deepest()["options"]
    assert [(o["B0.Z''"], o["B0.Z'''"], o["verdict"]) for o in deep] == [
        (0, 4, "excluded"), (1, 2, "open"), (2, 0, "pinned-to-pencil")]
    mid = {(o["B0.Z'1"], o["B0.Z'2"], o["B0.Z''"]): o["verdict"]
           for o in dp.b0_options_middle()["options"]}
    assert mid[(3, 0, 0)] == "excluded"
    assert mid[(1, 0, 4)] == "excluded"
    assert mid[(0, 0, 6)] == "excluded"
    assert mid[(2, 1, 0)] == "pinned-to-pencil"
    assert mid[(1, 1, 2)] == "open"


def test_index_theorem_kills():
    assert dp.elim_l_noa().verdict == "contradiction"
    assert dp.elim_l_nob().verdict == "contradiction"
    assert dp.elim_p_3lred().verdict == "contradiction"


def test_p_no3lirr_budget():
    e = dp.elim_p_no3lirr()
    assert e.verdict == "contradiction"
    assert (e.lhs, e.rhs) == ("6", "3")


def test_sixtuples():
    st = dp.sixtuple_enumerate()
    assert st["kept"] == [(8, 2, 0, 0, 0, 0), (8, 1, 1, 0, 0, 0), (8, 1, 0, 0, 1, 0)]
    excluded = {t for t, _ in st["excluded"]}
    assert (8, 0, 0, 0, 1, 1) in excluded


def test_exceptional_curve_solutions():
    sols = dp.exceptional_curve_solutions()
    assert sols["by_kind"] == {"conic": 3, "line": 6, "contracted": 6}
    assert sols["admissible_pairs"] == [
        ("conic", "contracted"), ("contracted", "contracted"),
        ("contracted", "line"), ("line", "line")]


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
    e1 = dp.elim_p_3l1()
    assert e1.verdict == "contradiction"
    assert any("P2: 3*B0+1*E1+1*E4+1*F" in line for line in e1.trace)
    assert any("P3: 3*B0+1*E1+1*E5+1*H" in line for line in e1.trace)
    for fn in (dp.elim_p_3l12, dp.elim_p_3l13):
        e = fn()
        assert e.verdict == "contradiction"
        assert any("P6: 3*B0+1*H" in line for line in e.trace)


def test_audit_admits_solutions_when_unconstrained():
    # without the planar-point equations the degree equation alone is solvable
    table = dp.table_14pt("lines-lines")
    free = dp.eigenvalue_audit(table, [])
    assert free.verdict == "survives"


def test_lines_to_contracted_move():
    assert dp.lines_to_contracted_move()


def test_torsion_class_has_no_instantiation():
    # divisor-class strengthening of the audits: no eigenvalue assignment
    # makes the weighted branch class divisible by 3 on any printed table
    for variant in ("lines-lines", "contracted-conic", "contracted-line",
                    "contracted-contracted"):
        assert dp.torsion_class_search(variant) == []


def test_degree_budget_invariant_under_moves():
    # 2 d_0 + sum d_i over the branch rows stays 18 through the quadratic move
    from godeaux3.plane import quadratic_transform

    table = dp.table_14pt("contracted-conic")
    weights = {"B0": 2, **{e: 1 for e in ("E1", "E2", "E3", "E4", "E5")}}
    before = sum(weights.get(r.name, 0) * r.degree for r in table.rows)
    _, rows = quadratic_transform(table.cluster, list(table.rows), ("P1", "P2", "P3"))
    after = sum(weights.get(r.name, 0) * r.degree for r in rows)
    assert before == after == 18

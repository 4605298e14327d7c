"""Acceptance suite: every exit criterion at its stated tolerance.

All comparisons are exact integer equalities; the only tolerances are the
wall-clock budgets, which are generous on any machine.  Each criterion prints
one pass/fail line.
"""

import json
import random
import time

import pytest

from godeaux3 import delpezzo, fibration, pencil, plane, ruled
from godeaux3.adjoint import verify_ladder_identity
from godeaux3.cover import enumerate_main_cases
from godeaux3.lattice import IntersectionLattice
from godeaux3.report import run


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_main_case_gate():
    start = time.perf_counter()
    cases = enumerate_main_cases()
    elapsed = time.perf_counter() - start
    got = [(c.r0k, c.h2) for c in cases]
    ok = got == [(1, 3), (0, 4), (0, 1)] and elapsed < 0.05
    _criterion(1, f"main cases {got} in {elapsed * 1000:.3f} ms", ok)


def test_criterion_2_pencil_enumeration():
    start = time.perf_counter()
    list0 = pencil.enumerate_pencil_cases(0)
    list1 = pencil.enumerate_pencil_cases(1)
    list2 = pencil.enumerate_pencil_cases(2)
    elapsed = time.perf_counter() - start
    quint0 = [(c.a2, c.ar0, c.g, c.apk, c.d_string()) for c in list0]
    quint1 = [(c.a2, c.ar0, c.g, c.apk, c.d_string()) for c in list1]
    ok = quint0 == [
        (2, 0, 1, 0, "E1+E2"), (2, 1, 1, 0, "2F+G+H"), (3, 0, 1, 0, "E1+E2+E3"),
        (3, 1, 1, 0, "E1+2F+G+H"), (4, 0, 1, 0, "2E1"), (5, 0, 1, 0, "2E1+E2"),
        (9, 0, 2, 2, "3F+3G+3H"), (9, 0, 1, 0, "3E1")]
    ok &= quint1 == [
        (3, 0, 2, 1, "0"), (3, 3, 1, -1, "0"), (3, 6, 0, -3, "0"),
        (5, 0, 2, 1, "2F+G+H"), (5, 3, 1, -1, "2F+G+H"), (9, 0, 2, 1, "3F+2G+3H")]
    ok &= list2 == [] and elapsed < 1.0
    _criterion(2, f"lists of sizes {len(list0)}/{len(list1)}/{len(list2)} "
                  f"in {elapsed:.3f} s", ok)


def test_criterion_3_diophantine_suite():
    from test_plane import brute_force_oracle

    start = time.perf_counter()
    sols = plane.solve_multiplicity_system(2, 2, 8)
    elapsed = time.perf_counter() - start
    printed = [(3, {1: 7}), (4, {2: 2, 1: 6}), (5, {2: 5, 1: 3}),
               (6, {3: 1, 2: 6, 1: 1}), (7, {3: 3, 2: 5}), (8, {3: 6, 2: 2}),
               (9, {4: 1, 3: 7})]
    ok = sols == printed
    ok &= sols == brute_force_oracle(2, 2, 8)
    ok &= elapsed < 1.0
    _criterion(3, f"7 solutions, oracle agreement, {elapsed:.3f} s", ok)


def test_criterion_4_cremona_orbit():
    start = time.perf_counter()
    sols = plane.solve_multiplicity_system(2, 2, 8)
    chains = plane.cremona_orbit_connect(sols)
    # replay every chain on full curve data and assert the invariants
    checked = 0
    for state, path in chains.items():
        for before, triple, after in path:
            d, mults = before
            cluster = plane.PointCluster(tuple(f"P{i}" for i in range(1, 9)))
            curve = plane.PlaneCurve("B0", d, mults)
            idxs = [mults.index(t) for t in triple]
            # make indices distinct when multiplicities repeat
            used = []
            for t in triple:
                i = next(i for i, m in enumerate(mults) if m == t and i not in used)
                used.append(i)
            base = tuple(f"P{i + 1}" for i in used)
            new = plane.quadratic_transform(cluster, [curve], base)
            assert new[0].self_int() == curve.self_int()
            assert new[0].genus() == curve.genus()
            assert 3 * new[0].degree - sum(new[0].mults) == \
                3 * curve.degree - sum(curve.mults)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = len(chains) == 7 and checked >= 6 and elapsed < 10.0
    _criterion(4, f"orbit connected, {checked} moves replayed with invariants, "
                  f"{elapsed:.3f} s", ok)


def test_criterion_5_delta_eliminations():
    start = time.perf_counter()
    expected_sides = {
        "t.ii": ("12+6l", "15+3l"),
        "p.no0": ("26", "20"),
        "p.no16": ("24", "22"),
        "t.no1rul": ("15", "13"),
    }
    ok = True
    args = {"t.ii": tuple(c.h2 for c in enumerate_main_cases() if c.id == "ii")}
    for prop, fn in fibration.ALL_DELTA_ELIMINATIONS.items():
        elim = fn(*args.get(prop, ()))
        if prop == "p.noN1":
            ok &= elim.verdict == "survives" and \
                elim.survivors == ((-3, 0, 6), (-1, 1, 6))
        else:
            ok &= elim.verdict == "contradiction"
        if prop in expected_sides:
            ok &= (elim.lhs, elim.rhs) == expected_sides[prop]
    p0 = {c.label: fibration.eliminate_by_delta(c) for c in pencil.enumerate_pencil_cases(0)}
    ok &= (p0["0a"].lhs, p0["0a"].rhs) == ("12+9l", "14+3l")
    ok &= p0["0a"].survivors == (0,) and p0["0b"].survivors == ()
    ok &= p0["0c"].survivors == (0,)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _criterion(5, f"all Euler eliminations regenerate printed sides, {elapsed:.3f} s", ok)


def test_criterion_6_homaloidal_contradiction():
    generic = ruled.homaloidal_eliminate("generic")
    special = ruled.homaloidal_eliminate("A'=N")
    ok = generic["poly"] == (36, -12, 1)
    ok &= generic["verdict"] == "contradiction"
    ok &= any("s1 + s2 = 11" in line for line in generic["trace"])
    ok &= special["verdict"] == "contradiction"
    ok &= special["d"] == 6 and special["required_degree"] == 10
    _criterion(6, "(d-6)^2 identity, 11 + 2 s4 > 9, and the degree clash", ok)


def test_criterion_7_del_pezzo_tables():
    start = time.perf_counter()
    ok = True
    for name, table in delpezzo.all_printed_tables():
        passed, violations = plane.verify_config_table(table)
        ok &= passed
    ok &= delpezzo.perturbation_sweep(delpezzo.table_14pt("lines-lines")) == []
    ok &= delpezzo.perturbation_sweep(delpezzo.table_8pt("8-2-0-0-0-0")) == []
    for fn, variant in ((delpezzo.elim_p_3l1, "lines-lines"),
                        (delpezzo.elim_p_3l12, "contracted-conic"),
                        (delpezzo.elim_p_3l13, "contracted-contracted")):
        table = delpezzo.table_14pt(variant)
        ok &= fn(table).verdict == "contradiction"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _criterion(7, f"tables verified, sweeps sharp, three audits contradict, "
                  f"{elapsed:.3f} s", ok)


def test_criterion_8_ladder_identities():
    reports = {branch: verify_ladder_identity(branch, 1)
               for branch in ("s.3l", "s.3l-1", "s.3l-2")}
    ok = all(r.ok for r in reports.values())
    ok &= reports["s.3l-2"].forced == {"n'": 5}
    ok &= reports["s.3l-1"].forced == {"n'": 2, "n''": 1}
    ok &= reports["s.3l"].forced == {"n'": 0, "n'''": 1}
    _criterion(8, "ladders exact; forced counts n'=5, n''=1, n'''=1", ok)


def test_criterion_9_full_pipeline():
    start = time.perf_counter()
    report = run("all")
    elapsed = time.perf_counter() - start
    ok = report.verdict == "verified"
    ok &= len(report.order) >= 40
    ledger = sorted(ax["id"] for ax in report.axiom_ledger())
    from godeaux3.prooftree import EXPECTED

    ok &= ledger == list(EXPECTED["axioms"])
    blob1 = json.dumps(run("all").to_json(), sort_keys=True)
    blob2 = json.dumps(run("all").to_json(), sort_keys=True)
    ok &= blob1 == blob2
    ok &= elapsed < 60.0
    _criterion(9, f"full tree verified ({len(report.order)} nodes, "
                  f"{len(ledger)} axioms) in {elapsed:.2f} s, byte-identical", ok)


def test_criterion_10_property_suites():
    rng = random.Random(1729)
    lat = IntersectionLattice.plane_blow_up(7)
    ok = True
    for _ in range(1000):
        u = lat.divisor([rng.randint(-5, 5) for _ in range(lat.rank)])
        v = lat.divisor([rng.randint(-5, 5) for _ in range(lat.rank)])
        w = lat.divisor([rng.randint(-5, 5) for _ in range(lat.rank)])
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        ok &= (a * u + b * v).dot(w) == a * u.dot(w) + b * v.dot(w)
        ok &= u.dot(v) == v.dot(u)
    # quadratic transform involution, on bases admissible or not
    for _ in range(100):
        mults = tuple(rng.randint(0, 3) for _ in range(4))
        curve = plane.PlaneCurve("C", 8, mults)
        twice = plane._transform_curve(plane._transform_curve(curve, (0, 1, 2)), (0, 1, 2))
        ok &= twice.degree == 8 and twice.mults == mults
    # node bound dominates the single-curve contribution on the fibre catalog
    for n in (1, 2, 3, 6):
        fiber = [(1, 0, {1: n}), (1, 0, {})]
        ok &= fibration.node_bound(fiber) >= fibration.min_contribution(-n)
    # parity of D^2 + D.K on every ladder class
    from godeaux3.adjoint import adjoint_table

    for ell in range(0, 4):
        for n in range(max(0, 3 * ell - 4), 3 * ell + 1):
            for row in adjoint_table(0, -2 - 3 * ell, 1, (n, 1, 1, 1)):
                ok &= (row.ni2 + row.nik) % 2 == 0
    _criterion(10, "bilinearity x1000, involution x100, node bounds, parity", ok)

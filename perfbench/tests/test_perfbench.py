"""Tests of the benchmark's own parts: tracer, oracles and seeded draws.

Run from the root of the repository:

    python -m pytest -q perfbench/tests
"""

import dataclasses
import random
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pytest  # noqa: E402

import godeaux3  # noqa: E402
from godeaux3 import delpezzo, fibration, plane  # noqa: E402
from kernels import Kernels, multiplicity_solutions, naive_dot, pencil_row_problem  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, ColdCli  # noqa: E402


@pytest.fixture(scope="module")
def kernels():
    return Kernels(ROOT)


def traced_counts(selector):
    tracer = Tracer()
    tracer.install()
    try:
        godeaux3.run(selector)
        tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer.snapshot()


def test_uninstall_restores_every_binding():
    before = (godeaux3.run, delpezzo.verify_config_table, plane.verify_config_table,
              fibration.ALL_DELTA_ELIMINATIONS["t.ii"], plane.PlaneCurve.dot)
    tracer = Tracer()
    tracer.install()
    try:
        assert delpezzo.verify_config_table is not before[1]
        assert delpezzo.verify_config_table is plane.verify_config_table
        assert fibration.ALL_DELTA_ELIMINATIONS["t.ii"] is not before[3]
    finally:
        tracer.uninstall()
    after = (godeaux3.run, delpezzo.verify_config_table, plane.verify_config_table,
             fibration.ALL_DELTA_ELIMINATIONS["t.ii"], plane.PlaneCurve.dot)
    assert all(a is b for a, b in zip(before, after))


def test_counts_repeat_exactly():
    first, second = traced_counts("t.ii"), traced_counts("t.ii")
    for field in ("calls", "failed", "fn_calls", "distinct"):
        assert first[field] == second[field]
    assert first["calls"]["report"] == 1
    assert first["fn_calls"]["fibration.elim_t_ii"] == 1


def test_same_layer_nesting_counts_once():
    sols = plane.solve_multiplicity_system(2, 2, 8)
    tracer = Tracer()
    tracer.install()
    try:
        plane.cremona_orbit_connect(sols)
    finally:
        tracer.uninstall()
    assert tracer.calls["plane"] == 1
    assert tracer.fn_calls["plane.state_from_solution"] == len(sols)


def test_self_times_add_up_to_the_outer_span():
    snap = traced_counts("1e")
    outer = snap["fn_incl_ns"]["report.run"]
    assert sum(snap["self_ns"].values()) == outer


def test_same_seed_gives_same_rounds(kernels):
    wl = WORKLOADS["layer_kernels"](ROOT)
    wl.kernels = kernels
    a, b = random.Random(7), random.Random(7)
    assert [wl.key(op) for op in wl.round(a)] == [wl.key(op) for op in wl.round(b)]


def test_brute_force_solutions_match_the_fixture(kernels):
    want = {(d0, tuple(sorted(m.items()))) for d0, m in kernels.solutions}
    got = {(d0, items) for d0, points, items in multiplicity_solutions()[(2, 2)]
           if points <= 8}
    assert got == want


def test_round_mix(kernels):
    draws = kernels.round(random.Random(3))
    fns = [d.fn for d in draws]
    assert fns.count("solve_multiplicity_system") == 108
    assert fns.count("perturbation_sweep") == 8
    assert sorted(d.key[1] for d in draws if d.fn == "perturbation_sweep") == sorted(
        name for name, _ in kernels.tables)


def test_kernel_oracle_accepts_the_program_on_a_round(kernels):
    for draw in kernels.round(random.Random(5)):
        try:
            result = kernels.run(draw)
        except TypeError:
            assert draw.fn == "solve_multiplicity_system"  # the recorded defect
            continue
        assert kernels.check(draw, result) is None, draw.key


def test_kernel_oracle_rejects_wrong_results(kernels):
    draws = kernels.round(random.Random(11))
    by_fn = {}
    for d in draws:
        by_fn.setdefault(d.fn, d)
    d = by_fn["intersect"]
    assert kernels.check(d, d.expect + 1) is not None
    d = by_fn["arithmetic_genus"]
    assert kernels.check(d, d.expect - 1) is not None
    d = by_fn["hodge_index_filter"]
    assert kernels.check(d, not d.expect) is not None
    sols = kernels.solutions
    triple = next(dr for dr in draws if dr.args == (2, 2, 8))
    assert kernels.check(triple, sols[:-1]) is not None
    bad = [(sols[0][0], {1: sols[0][1][1] + 1})]
    other = next(dr for dr in draws if dr.args == (0, 0, 8))
    right = kernels.run(other)
    assert kernels.check(other, right) is None
    assert kernels.check(other, right + bad) is not None
    assert kernels.check(other, right[1:]) is not None              # incomplete
    assert kernels.check(other, []) is not None
    d = next(dr for dr in draws if dr.args == (0, 3, False))
    rows = kernels.run(d)
    assert kernels.check(d, rows) is None
    assert kernels.check(d, rows[1:]) is not None                   # lacks a proof row
    row = rows[-1]
    assert pencil_row_problem(row, 0, 3) is None
    assert pencil_row_problem(dataclasses.replace(row, g=row.g + 1, apk=row.apk + 2), 0, 3) \
        is not None                                                 # genus identity
    assert pencil_row_problem(dataclasses.replace(row, apk=row.apk + 1), 0, 3) is not None
    assert pencil_row_problem(dataclasses.replace(row, a2=row.a2 + 2), 0, 3) is not None
    d = by_fn["cremona_orbit_connect"]
    chains = kernels.run(d)
    broken = {state: chain[:-1] for state, chain in chains.items()}
    if any(chains.values()):
        assert kernels.check(d, broken) is not None
    d = by_fn["perturbation_sweep"]
    assert kernels.check(d, ["B0@P1+1"]) is not None
    d = by_fn["eliminate_by_delta"]
    result = kernels.run(d)
    assert kernels.check(d, fibration.Elimination(
        result.prop_id, result.lhs, result.rhs, result.verdict, result.trace,
        result.survivors + (99,))) is not None


def test_naive_dot_matches_a_hand_product():
    gram = [[1, 0], [0, -1]]
    assert naive_dot(gram, (3, 2), (3, 2)) == 5


def test_cold_cli_oracle():
    wl = ColdCli(ROOT)
    good = b"x  [axiom        ]  axiom-assumed\n\nsummary: axiom-assumed=1\nverdict: verified\n"
    assert wl.check("run", (0, good)) is None
    assert wl.check("run", (0, good)) is None
    assert wl.check("run", (0, b"\n" + good)) is not None          # differs from the first
    assert wl.check("run", (1, good)) is not None                   # exit code
    assert wl.check("run", (0, good.replace(b"axiom-assumed\n\n", b"failed\n\n"))) is not None
    assert wl.check("run", (0, good.replace(b"verified", b"failed"))) is not None

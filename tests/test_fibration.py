import pytest

from godeaux3 import fibration as fib
from godeaux3.fibration import (Elimination, FibrationError, FibrationModel,
                                LinearForm, delta, min_contribution, node_bound)


def test_delta_formula():
    # pencil case: e(Y) = 14 + 3l, genus-3 members with 3 base points for A' = N
    model = FibrationModel(e_ambient=17, fiber_pa=3, base_points=3)
    assert delta(model) == 17 + 3 + 8
    # elliptic pencil of the second case with l = 2: delta = e(Y) = 21
    model = FibrationModel(e_ambient=21, fiber_pa=1, base_points=0)
    assert delta(model) == 21
    # rational pencil on the l = 1 ruled branch: 12 + 2 + 3 - 4 = 13
    model = FibrationModel(e_ambient=17, fiber_pa=0, base_points=0)
    assert delta(model) == 13


def test_delta_rejects_negative():
    with pytest.raises(FibrationError):
        FibrationModel(e_ambient=2, fiber_pa=0, base_points=0)


def test_min_contribution():
    assert min_contribution(-3) == 3
    assert min_contribution(-6) == 6
    assert min_contribution(-1) == 1
    with pytest.raises(FibrationError):
        min_contribution(0)


def test_node_bound_examples():
    # single (-n)-curve with multiplicity 1 closed by a transverse component
    for n in (1, 2, 3, 6):
        bound = node_bound([(1, 0, {1: n}), (1, 0, {})])
        assert bound >= n
    assert node_bound([(1, 0, {1: 1}), (1, 0, {})]) == 1
    assert node_bound([]) == 0
    # multiplicity-2 component: (h-1)(2p_a - 2) kicks in
    assert node_bound([(2, 0, {1: 2}), (1, 0, {})]) == -2 + (2 + 1 - 1) * 2


def test_node_bound_dominates_min_contribution():
    for n in range(1, 8):
        for h1 in (1, 2, 3):
            fiber = [(h1, 0, {1: n * h1}), (1, 0, {})]
            assert node_bound(fiber) >= min_contribution(-n)


def test_node_bound_disconnected():
    with pytest.raises(FibrationError):
        node_bound([(1, 0, {}), (1, 0, {})])


def test_linear_form():
    f = LinearForm(12, 6)
    assert str(f) == "12+6l" and f(2) == 24
    assert str(LinearForm(26)) == "26"
    assert str(f - LinearForm(15, 3)) == "-3+3l"


def test_t_ii_sides_and_verdict():
    e = fib.elim_t_ii()
    assert (e.lhs, e.rhs) == ("12+6l", "15+3l")
    assert e.verdict == "contradiction"


def test_p_no0():
    e = fib.elim_p_no0()
    assert (e.lhs, e.rhs) == ("26", "20")
    assert e.verdict == "contradiction"


def test_p_noZ_noN():
    assert fib.elim_p_noZ().verdict == "contradiction"
    assert fib.elim_p_noN().verdict == "contradiction"


def test_p_noN1_survivors():
    e = fib.elim_p_noN1()
    assert e.verdict == "survives"
    assert e.survivors == ((-3, 0, 6), (-1, 1, 6))


def test_p_no16():
    e = fib.elim_p_no16()
    assert (e.lhs, e.rhs) == ("24", "22")
    assert e.verdict == "contradiction"


def test_t_no1rul():
    e = fib.elim_t_no1rul()
    assert (e.lhs, e.rhs) == ("15", "13")
    assert e.verdict == "contradiction"


def test_pencil_euler_pass():
    expected = {"0a": (0,), "0b": (), "0c": (0,), "0d": (1,), "0e": (),
                "0f": (0,), "0g": (0,), "0h": ()}
    for label, survivors in fib.elim_p_0().items():
        assert survivors.survivors == expected[label], label
    expected1 = {"1a": (0,), "1b": (), "1c": (), "1d": (0,), "1e": (1, 2, 3),
                 "1f": (0, 1)}
    for label, survivors in fib.elim_p_1().items():
        assert survivors.survivors == expected1[label], label
    assert fib.elim_p_3().survivors == (0, 1)


def test_printed_sides_regenerate():
    results = fib.elim_p_0()
    assert (results["0a"].lhs, results["0a"].rhs) == ("12+9l", "14+3l")
    assert (results["0b"].lhs, results["0b"].rhs) == ("9+9l", "14+3l")
    assert (results["0c"].lhs, results["0c"].rhs) == ("9+9l", "14+3l")


def test_survivor_composites():
    survivors = fib.t_iii_survivors({**fib.elim_p_0(), **fib.elim_p_1(), "N": fib.elim_p_3()})
    assert survivors == {
        0: ("0a", "0c", "0f", "0g", "1a", "1d", "1f", "N"),
        1: ("0d", "1e", "1f", "N"),
        2: ("1e",),
        3: ("1e",),
    }
    closed = {"1e", "0d", "0a", "0c", "0f"}
    assert fib.t_iii2_survivors(survivors, closed) == {
        0: ("0g", "1a", "1d", "1f", "N"), 1: ("1f", "N")}


def test_1e_distributions_all_positive():
    from godeaux3.pencil import pencil_case

    case = pencil_case("1e")
    for ell in (1, 2, 3):
        dists = fib.p1e_meeting_distributions(case, ell)
        assert dists
        assert all(min(d) >= 1 for d in dists)


def test_lattice_eliminations():
    l0 = fib.elim_p_l0()
    assert {k: e.verdict for k, e in l0.items()} == {
        "0a": "contradiction", "0c": "contradiction", "0f": "contradiction"}
    assert (l0["0a"].lhs, l0["0a"].rhs) == ("4", "3")
    assert fib.elim_p_no0d().verdict == "contradiction"
    assert fib.elim_t_no4().verdict == "contradiction"
    assert fib.elim_p_1e().verdict == "contradiction"


def test_p_no0d_trace():
    e = fib.elim_p_no0d()
    assert (e.lhs, e.rhs) == ("5", "4")
    assert any("m = 4" in line for line in e.trace)


def test_fixed_part_dichotomies():
    assert fib.check_l_n1()
    assert fib.check_l_N10()[0]
    assert fib.check_l_N1()[0]


def test_elimination_json():
    e = Elimination("x", "1", "2", "contradiction", ("step",), ((1, 2),))
    blob = e.to_json()
    assert blob == {"prop_id": "x", "lhs": "1", "rhs": "2",
                    "verdict": "contradiction", "trace": ["step"],
                    "survivors": [[1, 2]]}


def test_case_i_grid_is_finite_and_consistent():
    grid = fib.case_i_grid()
    assert (1, 0) in grid and (-5, 0) in grid and (-7, 0) not in grid
    for gamma_sq, ell in grid:
        assert gamma_sq % 2 == 1 or gamma_sq % 2 == -1
        h1 = (3 - gamma_sq) // 2 + ell
        assert 1 <= h1 <= 4


def test_min_contribution_accepts_component_tuples():
    assert min_contribution(("F'", -3, 1, 0)) == 3


def test_eliminate_by_delta_accepts_case_objects():
    from godeaux3.pencil import pencil_case

    by_label = fib.eliminate_by_delta("0a")
    by_case = fib.eliminate_by_delta(pencil_case("0a"))
    assert by_label == by_case

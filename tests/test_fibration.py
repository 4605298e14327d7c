import os
import subprocess
import sys
from itertools import product

import pytest

import godeaux3
from godeaux3 import delpezzo, fibration as fib
from godeaux3 import ruled
from godeaux3.adjoint import adjoint_pairing, adjoint_step, adjoint_table, ladder_top
from godeaux3.cover import (MAIN_CASES, CaseInvalidError, RamificationData, image_square,
                            quotient_k2)
from godeaux3.fibration import FibrationError, LinearForm, min_contribution, node_bound
from godeaux3.lattice import canonical_degree
from godeaux3.pencil import enumerate_pencil_cases, pencil_case
from godeaux3.report import run


def test_partitions_match_a_brute_force():
    for total in range(7):
        for slots in range(1, 5):
            brute = sorted((t for t in product(range(total + 1), repeat=slots)
                            if sum(t) == total and list(t) == sorted(t, reverse=True)),
                           reverse=True)
            assert list(fib._partitions(total, slots)) == brute, (total, slots)


def euler_pass(aprime2):
    """The Euler test over one pencil list, as the nodes p.0, p.1 and p.3 run it."""
    return {c.label: fib.eliminate_by_delta(c) for c in enumerate_pencil_cases(aprime2)}


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
    assert str(LinearForm(-3, 3)) == "-3+3l"


def test_printed_forms_and_a_one_component_fibre():
    # a +1 on the literals of LinearForm.__str__ or of node_bound changes one of these
    forms = [LinearForm(5, 1), LinearForm(12, 9), LinearForm(0, 1), LinearForm(14, -3)]
    assert [str(f) for f in forms] == ["5+l", "12+9l", "l", "14-3l"]
    assert node_bound([(2, 2, {})]) == 2  # (h - 1)(2 p_a - 2) of one double genus-2 curve


def test_t_ii_sides_and_verdict():
    e = fib.elim_t_ii(4)
    assert (e.lhs, e.rhs) == ("12+6l", "15+3l")
    assert e.verdict == "contradiction"


def test_p_no0():
    e = fib.elim_p_no0()
    assert (e.lhs, e.rhs) == ("26", "20")
    assert e.verdict == "contradiction"


def test_p_no0_reads_its_window_off_the_case_i_grid(monkeypatch):
    # (Gamma^2, l) = (1, 4) has K_Y^2 = -15, so n runs to 11 and 11 fits delta too
    grid = fib.case_i_grid()
    monkeypatch.setattr(fib, "case_i_grid", lambda: [*grid, (1, 4)])
    assert quotient_k2(RamificationData(1, 4, 3, 1)) == -15
    e = fib.elim_p_no0()
    assert (e.lhs, e.verdict) == ("[8, 11]", "failed")


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
    results = euler_pass(0)
    assert results.keys() == expected.keys()
    for label, survivors in results.items():
        assert survivors.survivors == expected[label], label
    expected1 = {"1a": (0,), "1b": (), "1c": (), "1d": (0,), "1e": (1, 2, 3),
                 "1f": (0, 1)}
    results = euler_pass(1)
    assert results.keys() == expected1.keys()
    for label, survivors in results.items():
        assert survivors.survivors == expected1[label], label
    assert euler_pass(3)["N"].survivors == (0, 1)


def test_printed_sides_regenerate():
    results = euler_pass(0)
    assert (results["0a"].lhs, results["0a"].rhs) == ("12+9l", "14+3l")
    assert (results["0b"].lhs, results["0b"].rhs) == ("9+9l", "14+3l")
    assert (results["0c"].lhs, results["0c"].rhs) == ("9+9l", "14+3l")


def test_survivor_composites():
    survivors = fib.t_iii_survivors({**euler_pass(0), **euler_pass(1), **euler_pass(3)})
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
    case = pencil_case("1e")
    for ell in (1, 2, 3):
        dists = fib.p1e_meeting_distributions(case, ell)
        assert dists
        assert all(min(d) >= 1 for d in dists)


def test_lattice_eliminations():
    l0 = fib.elim_p_l0([pencil_case(lab) for lab in ("0a", "0c", "0f")])
    assert {k: e.verdict for k, e in l0.items()} == {
        "0a": "contradiction", "0c": "contradiction", "0f": "contradiction"}
    assert {lab: (e.lhs, e.rhs) for lab, e in l0.items()} == {
        "0a": ("4", "3"), "0c": ("3", "1"), "0f": ("2", "1")}
    assert fib.elim_p_no0d(pencil_case("0d"), 1).verdict == "contradiction"
    e = fib.elim_t_no4(pencil_case("1e"))
    assert e.verdict == "contradiction"
    assert "N.Theta = 2, T = 0, Theta.K_Y = -2: rational pencil" in e.trace
    assert "A'.Theta = 1 with A' elliptic" in e.trace
    e = fib.elim_p_1e(pencil_case("1e"), (0, -1, -2, -3))
    assert e.verdict == "contradiction"
    assert e.trace[:3] == (
        "n-3l=0: N_1 = 2A' gives N.N_1 4 != 6",
        "n-3l=-1: m=3, n'=1 leaves 2 cycles for 1 slot; n'=2: B_0.N_2 = 3 > Phi'.N_2 = 2",
        "n-3l=-2: m=4, 0 = F'.N_1 = F'.A' + F'.Z'_5 = 1")
    # an offset the elimination has no argument for is refused
    with pytest.raises(FibrationError, match="-3..0"):
        fib.elim_p_1e(pencil_case("1e"), (0, 1))


@pytest.mark.parametrize("offsets", [(-4,), (1,), (-5, 0), (0, -1, -2, -3, -4)])
def test_p_1e_refuses_offsets_outside_its_argument(offsets):
    # n = 3l - 4 is t.no4's; no n - 3l above 0 or below -4 occurs
    case = pencil_case("1e")
    with pytest.raises(FibrationError, match="-3..0"):
        fib.elim_p_1e(case, offsets)
    for off in (0, -1, -2, -3):
        assert fib.elim_p_1e(case, (off,)).verdict == "contradiction"


def test_p_no0d_trace():
    e = fib.elim_p_no0d(pencil_case("0d"), 1)
    assert (e.lhs, e.rhs) == ("5", "4")
    assert e.trace[0] == "0 = A_1^2 = -4 + m forces m = 4; A_1.K = 0"
    assert e.trace[2].endswith("C_1.B_0 <= A'.B_0 = 1")


def test_fixed_part_dichotomies():
    assert fib.n1_squares(2) == [0, 1]
    assert fib.check_l_N10()[0]
    assert fib.check_l_N1()[0]


def test_fixed_part_shapes_come_from_one_grid_search():
    # the shapes check_l_N1 typed before: Delta.T = -T^2, Delta^2 = 1 - Delta.T
    typed = [(1 + t2, -t2, t2) for t2 in (0, -1)]
    assert fib.check_l_N1()[2] == typed == fib._fixed_part_shapes(1, 0)
    assert fib.check_l_N10()[2] == [(0, 0, 0)] == fib._fixed_part_shapes(0, 0)
    # the two equations against a brute force over Delta^2, Delta.T <= 11 and |T^2| <= 12
    for n1_delta, n1_t in product(range(0, 4), range(-3, 4)):
        brute = sorted(((d2, dt, t2) for d2 in range(0, 12) for dt in range(0, 12)
                        for t2 in range(-12, 13) if d2 + dt == n1_delta and dt + t2 == n1_t),
                       reverse=True)
        assert fib._fixed_part_shapes(n1_delta, n1_t) == brute, (n1_delta, n1_t)


def test_l_n1_reads_the_index_rule_on_every_candidate(monkeypatch):
    real, seen = fib.index_slack, []

    def spy(x, nn1, n_sq):
        seen.append((x, nn1, n_sq))
        return real(x, nn1, n_sq)

    monkeypatch.setattr(fib, "index_slack", spy)
    assert fib.n1_squares(2) == [0, 1]
    # N^2 = 3 and N.N_1 = 2: the candidates run over 0..(N.N_1)^2
    assert seen == [(x, 2, 3) for x in range(5)]
    # the index theorem allows equality: N_1^2 = 1 on the boundary stays in
    monkeypatch.setattr(fib, "index_slack", lambda x, nn1, n_sq: real(x, nn1, n_sq) - (x == 1))
    assert fib.n1_squares(2) == [0, 1]


def test_case_i_grid_is_finite_and_consistent():
    grid = fib.case_i_grid()
    assert (1, 0) in grid and (-5, 0) in grid and (-7, 0) not in grid
    # a brute force over l <= 29 with the filter h_1 <= 4 finds the same grid
    assert grid == [(g, ell) for g in (1, -1, -3, -5, -7) for ell in range(0, 30)
                    if RamificationData(1, ell, 3, g).h1 <= 4]
    # the grid's one filter h_1 <= 4 implies the other two the grid once had
    three_filters = [(g, ell) for g in (1, -1, -3, -5, -7) for ell in range(0, 30)
                     if 2 * ell <= 5 + g and 1 <= (3 - g) // 2 + ell <= 4
                     and -4 - 3 * ell + (3 * g - 1) // 2 >= -12]
    assert grid == three_filters
    for gamma_sq, ell in grid:
        assert gamma_sq % 2 == 1 or gamma_sq % 2 == -1
        h1 = (3 - gamma_sq) // 2 + ell
        ky2 = -4 - 3 * ell + (3 * gamma_sq - 1) // 2
        assert 1 <= h1 <= 4 and ky2 >= -12
        # the count n of the scans at N_1^2 = 1 = 4 + K_Y^2 + n
        n = 1 - 4 - ky2
        assert n >= 0 and n % 3 == 0, (gamma_sq, ell)


def test_eliminate_by_delta_accepts_case_objects():
    by_label = fib.eliminate_by_delta("0a")
    by_case = fib.eliminate_by_delta(pencil_case("0a"))
    assert by_label == by_case


# the labels of every pencil case the Euler pass judges: A'^2 = 0, A'^2 = 1 and N
PENCIL_LABELS = [f"0{c}" for c in "abcdefgh"] + [f"1{c}" for c in "abcdef"] + ["N"]


@pytest.mark.parametrize("label", PENCIL_LABELS)
def test_euler_pass_window_matches_a_brute_force(label):
    """The window read off the two sides finds what a scan to l = 60 finds, and a
    caller's ell_max cuts it."""
    case = pencil_case(label)
    inv = fib._pencil_trapped(case)
    brute = tuple(ell for ell in range(1 if case.ar0 else 0, 61)
                  if fib._pencil_sum(inv, ell, max(0, ell - case.ar0))
                  <= fib.euler_excess(quotient_k2(RamificationData(0, ell, 1)),
                                      case.aprime2, case.apk))
    assert fib.eliminate_by_delta(case).survivors == brute
    for cut in range(0, 13):
        assert fib.eliminate_by_delta(case, cut).survivors == tuple(
            ell for ell in brute if ell <= cut)


def test_trapped_sums_min_contribution_over_named_curves():
    assert fib.trapped() == 0
    assert fib.trapped((5, fib.EXC_SQ), (2, fib.B0_SQ), (2, fib.CYCLE_SQ)) == 15 + 12 + 2
    # a curve of positive square is named only when none of it is trapped
    assert fib.trapped((0, image_square(1)), (1, image_square(-3))) == 9
    with pytest.raises(FibrationError):
        fib.trapped((1, image_square(1)))


def test_squares_are_read_from_cover_and_the_exceptional_gram():
    assert image_square(-1) == fib.EXC_SQ == -3
    assert image_square(-2) == fib.B0_SQ == -6
    assert [image_square(g) for g in (-3, -5)] == [-9, -15]


def test_euler_excess_equals_the_typed_delta_formulas():
    # the formulas the eliminations typed before they shared euler_excess
    pencil_rows = [c for ap in (0, 1, 2, 3) for c in enumerate_pencil_cases(ap)]
    for ell in range(0, 13):
        r = RamificationData(0, ell, 1)
        ky2 = quotient_k2(r)
        assert MAIN_CASES["iii"].datum(ell) == r
        # the pencil scans read h_1 and K_Y^2 off forms in l taken at l = 0, 1
        assert (fib._PENCIL_H1(ell), fib._PENCIL_KY2(ell)) == (r.h1, ky2)
        for case in pencil_rows:
            assert fib.euler_excess(ky2, case.aprime2, case.apk) \
                == 14 + 3 * ell + 3 * case.aprime2 + 2 * case.apk, (case.label, ell)
    for ell in range(2, 9):
        assert fib.euler_excess(quotient_k2(RamificationData(0, ell, 4)), 0, 0) == 15 + 3 * ell
    # case (i): 12 + 3 N_1^2 + n + Delta^2 with N_1^2 = 4 + K_Y^2 + n
    pencils = {(0, 0): (1, 0), (1, -1): (1, 1), (0, -2): (0, 0)}  # (F^2, F.K) -> (N_1^2, Delta^2)
    for gamma_sq, ell in fib.case_i_grid():
        ky2 = quotient_k2(RamificationData(1, ell, 3, gamma_sq))
        for moving, (n1sq, delta_sq) in pencils.items():
            n = n1sq - 4 - ky2
            assert fib.euler_excess(ky2, *moving) == 12 + 3 * n1sq + n + delta_sq


@pytest.mark.parametrize("name", ["EXC_SQ", "B0_SQ"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_a_shifted_square_fails_the_run(monkeypatch, name, shift):
    for module in (fib, ruled):
        monkeypatch.setattr(module, name, getattr(fib, name) + shift)
    assert run("all").verdict == "failed"


@pytest.mark.parametrize("factor", [2, 4])
def test_a_wrong_image_square_factor_fails_the_run(factor):
    # the squares are derived when fibration is imported, so re-import it in a
    # fresh interpreter after patching cover
    code = (
        "import importlib\n"
        "from godeaux3 import cover, fibration, ruled\n"
        f"cover.image_square = lambda c_sq: {factor} * c_sq\n"
        "importlib.reload(fibration)\n"
        "importlib.reload(ruled)\n"
        "from godeaux3.report import run\n"
        "print(fibration.EXC_SQ, fibration.B0_SQ, run('all').verdict)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(godeaux3.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out == [str(-factor), str(-2 * factor), "failed"]


def test_node_bound_dominates_every_contribution_a_run_uses(monkeypatch):
    squares = set()
    counted = fib.min_contribution

    def spy(self_int):
        if sys._getframe(1).f_code.co_name != "_e_fibre":  # e.fibre's own checks do not count
            squares.add(self_int)
        return counted(self_int)

    monkeypatch.setattr(fib, "min_contribution", spy)
    report = run("all")
    assert report.verdict == "verified"
    # e.fibre verifies exactly the squares the other nodes pass, case (i)'s Gamma' included
    assert squares == {-1, -3, -6, -9, -15} == report.results["e.fibre"].value.keys()
    for sq in squares:
        n = -sq
        assert node_bound([(1, 0, {1: n}), (1, 0, {})]) >= counted(sq), sq


# The pairings the pencil-case eliminations typed before the adjunction rule, the
# adjoint step and the projection computed them, kept as references.
TYPED_PAIRINGS = {
    "0a": {"A'.N": 2, "A'.N_1": 2, "N.N_2": 5, "Phi'.N_2": 3, "E'.N_2": 2, "E'-curves": 2},
    "0c": {"A'.N_1": 3, "Phi'.N_1": 1, "E'.N_1": 1, "E'-curves": 3},
    "0f": {"A'.N_1": 3, "Phi'.N_1": 1, "E'.N_1": 1, "E'-curves": 2},
    "0d": {"m": 4, "A_1.K": 0, "B_0.K": 4, "B_0.sum C": 5, "C.B_0 max": 1},
    "1e": {"N.N_1": 4, "2 N.A'": 6, "B_0.A'": 3, "Phi'.A'": 2, "F'.A'": 1, "A'.Theta": 1,
           "Theta.K": -2},
}


def _down(x_n, x_k, levels):
    """X.N_levels for a curve X that misses every contracted curve."""
    for _ in range(levels):
        x_n = adjoint_pairing(x_n, x_k, 0)
    return x_n


def _computed_pairings(case):
    n2, nk = ladder_top(0)
    a_n, a_k, a_b0 = case.ak, case.apk, case.ar0  # A'.N, A'.K_Y, A'.B_0
    e_k = canonical_degree(fib.EXC_SQ)
    if case.label == "0a":
        return {"A'.N": a_n, "A'.N_1": _down(a_n, a_k, 1), "N.N_2": _down(n2, nk, 2),
                "Phi'.N_2": _down(n2, nk, 2) - _down(a_n, a_k, 2), "E'.N_2": _down(0, e_k, 2),
                "E'-curves": fib._pencil_trapped(case)[2]}
    if case.label in ("0c", "0f"):
        return {"A'.N_1": _down(a_n, a_k, 1), "Phi'.N_1": _down(n2, nk, 1) - _down(a_n, a_k, 1),
                "E'.N_1": _down(0, e_k, 1), "E'-curves": fib._pencil_trapped(case)[2]}
    if case.label == "0d":  # at l = 1, where it survives
        ky2 = quotient_k2(RamificationData(0, 1, 1))
        _, a1sq0, _ = adjoint_step(case.aprime2, a_k, ky2, 1)
        _, a1sq, a1k = adjoint_step(case.aprime2, a_k, ky2, 1 - a1sq0)
        assert a1sq == 0
        b0_k = canonical_degree(fib.B0_SQ)
        return {"m": -a1sq0, "A_1.K": a1k, "B_0.K": b0_k,
                "B_0.sum C": adjoint_pairing(a_b0, b0_k, 0), "C.B_0 max": a_b0}
    return {"N.N_1": _down(n2, nk, 1), "2 N.A'": 2 * a_n, "B_0.A'": a_b0,
            "Phi'.A'": a_n - case.aprime2, "F'.A'": fib._pencil_trapped(case)[0],
            "A'.Theta": _down(a_n, a_k, 1) // 2, "Theta.K": canonical_degree(0)}


@pytest.mark.parametrize("label", sorted(TYPED_PAIRINGS))
def test_computed_pairings_match_the_typed_references(label):
    assert _computed_pairings(pencil_case(label)) == TYPED_PAIRINGS[label]


def test_p_1e_reads_n1_off_the_ladder_at_every_l():
    # (1e)'s N_1^2 = 4 + (n - 3l), N_1.K = n - 3l and N_1.(sum C_j) = A'.N_1 + N_1.K
    # = 2 + (n - 3l) hold at each l it survives at
    case = pencil_case("1e")
    a_n, a_k = case.ak, case.apk
    for ell in (1, 2, 3):
        ky2 = quotient_k2(RamificationData(0, ell, 1))
        for off in range(0, -4, -1):
            row = adjoint_table(0, ky2, 1, (3 * ell + off,))[0]
            assert (row.ni2, row.nik) == (4 + off, off)
            assert adjoint_pairing(_down(a_n, a_k, 1), row.nik, 0) == 2 + off


def test_adjunction_replaces_the_typed_canonical_degrees():
    assert canonical_degree(fib.EXC_SQ) == 1 and canonical_degree(fib.B0_SQ) == 4
    for n1sq in range(0, 9):  # elim_p_no0's rational pencil |N_1|
        assert canonical_degree(n1sq) == -2 - n1sq
    # t.no1rul's N_3 and t.no4's Theta (rational, square 0), case (i)'s N_1 with
    # N_1^2 = p_a(N_1) = 1, and t.ii's elliptic M' of square 0
    assert [canonical_degree(0), canonical_degree(1, 1), canonical_degree(0, 1)] == [-2, -1, 0]
    for square in (fib.EXC_SQ, fib.B0_SQ, -1):  # delpezzo.contraction's 2 + C^2
        for meets in ((), (1,), (0, 0, 3), (1, 1, 2)):
            assert delpezzo.contraction(square, meets)[1] == 2 + square + sum(meets)


@pytest.mark.parametrize("shift", [0, 10])
def test_t_ii_verdict_matches_a_brute_scan(monkeypatch, shift):
    # every h_2 in 4..13 whose K_Y^2 is an integer at l_min = 2 h_2 - 6
    accepted = []
    for h2 in range(4, 14):
        try:
            quotient_k2(RamificationData(0, 2 * h2 - 6, h2))
        except CaseInvalidError:
            continue
        accepted.append(h2)
    assert accepted == [4, 7, 10, 13]
    # lowering what the fibre traps by ``shift`` lets small l survive for h_2 = 4
    trapped = fib.trapped
    monkeypatch.setattr(fib, "trapped", lambda *curves: trapped(*curves) - shift)
    for h2 in accepted:
        def excess(ell):
            ky2 = quotient_k2(RamificationData(0, ell, h2))
            return fib.euler_excess(ky2, 0, canonical_degree(0, 1))

        survivors = [ell for ell in range(2 * h2 - 6, 201)
                     if fib.trapped((2 * (h2 - 1), fib.EXC_SQ), (ell - 1, fib.B0_SQ))
                     <= excess(ell)]
        verdict = fib.elim_t_ii(h2).verdict
        assert verdict == ("survives" if survivors else "contradiction"), (h2, survivors)
        assert bool(survivors) == (shift > 0 and h2 == 4)

from fractions import Fraction

import pytest

from godeaux3.adjoint import (Cycle, CycleCounts, adjoint_table,
                              cycle_structure_check, n_prime_one_is_contradiction,
                              n_range, restriction_dim, verify_ladder_identity,
                              z_lower_bound)


def test_adjoint_table_pencil_case():
    # l = 1 (K_Y^2 = -5), n = 3: the deepest branch numbers
    rows = adjoint_table(0, -5, 1, CycleCounts(3, 0, 1, 0))
    assert rows[0].ni2 == 4 and rows[0].pa == 3 and rows[0].prev_dot == 4
    assert rows[1].ni2 == 3 and rows[1].prev_dot == 4
    assert rows[2].ni2 == 1 and rows[2].pa == 1
    # n = 2 instead: N_1^2 = 3 and N_1.N_2 = 2
    rows = adjoint_table(0, -5, 1, CycleCounts(2))
    assert rows[0].ni2 == 3 and rows[1].prev_dot == 2


def test_adjoint_table_first_case():
    # p_a(N_1) = 4 + K_Y^2 + n = N_1^2 when R_0.K = 1, h_2 = 3
    for ky2 in (-3, -6, -9):
        for n in range(0, 7):
            rows = adjoint_table(1, ky2, 3, CycleCounts(n))
            assert rows[0].pa == 4 + ky2 + n == rows[0].ni2
            assert rows[0].prev_dot == 2


def test_table_consistency_over_grid():
    for r0k, h2 in ((0, 1), (0, 4), (1, 3)):
        for ky2 in range(-12, 0):
            for n in range(0, 9):
                rows = adjoint_table(r0k, ky2, h2, CycleCounts(n, 1, 1, 1))
                assert all(row.consistent() for row in rows)


def test_z_lower_bound():
    assert z_lower_bound(0, -2, 1) == Fraction(-1)     # vacuous against n >= 0
    assert z_lower_bound(0, 0, 1) == Fraction(-4)
    assert z_lower_bound(1, -3, 3) == Fraction(5)
    assert z_lower_bound(1, 1 - 2 * 1, 3) == Fraction(2)


def test_n_range():
    assert n_range(0) == (0, 0)
    assert n_range(1) == (0, 3)
    assert n_range(2) == (2, 6)
    assert restriction_dim(1, 3) == 2  # the pencil still embeds at the top


def test_cycle_structure_accepts_catalogued_shape():
    config = [Cycle((("Z1", 1),)), Cycle((("Z2", 1),)),
              Cycle((("Z1", 1), ("Z2", 1), ("E3", 1)))]
    inters = {("Z1", "B0"): 1, ("Z1", "E"): 1, ("Z2", "B0"): 1, ("Z2", "E"): 1}
    ok, why = cycle_structure_check(config, inters)
    assert ok, why


def test_cycle_structure_second_shape():
    config = [Cycle((("Z1", 1),)), Cycle((("Z1", 1), ("C1", 1))),
              Cycle((("Z1", 2), ("C1", 1), ("E2", 1)))]
    ok, why = cycle_structure_check(config)
    assert ok, why


def test_cycle_structure_rejections():
    assert not cycle_structure_check([Cycle((("G1", 1),))])[0]
    assert not cycle_structure_check([Cycle((("F2", 1), ("Z1", 1)))])[0]
    assert not cycle_structure_check([Cycle((("Z1", 1), ("E1", 1), ("E2", 1)))])[0]
    # wrong intersection numbers on an irreducible cycle
    ok, why = cycle_structure_check([Cycle((("Z1", 1),))], {("Z1", "B0"): 2})
    assert not ok and "B0" in why
    # a reducible cycle needs n >= 3
    config = [Cycle((("Z1", 1),)), Cycle((("Z1", 1), ("E1", 1)))]
    assert not cycle_structure_check(config)[0]


@pytest.mark.parametrize("branch,forced", [
    ("s.3l", {"n'": 0, "n'''": 1}),
    ("s.3l-1", {"n'": 2, "n''": 1}),
    ("s.3l-2", {"n'": 5}),
])
def test_ladder_identities(branch, forced):
    report = verify_ladder_identity(branch, ell=1)
    assert report.ok, report.failures
    assert report.forced == forced


def test_deepest_ladder_at_ell_zero():
    report = verify_ladder_identity("s.3l", ell=0)
    assert report.ok and report.forced["n'''"] == 1


def test_ladder_fails_off_branch():
    # the shallow ladder needs n = 3l - 2 >= 0
    report = verify_ladder_identity("s.3l-2", ell=0)
    assert not report.ok


def test_n_prime_one_contradiction_flag():
    assert n_prime_one_is_contradiction(1)
    assert n_prime_one_is_contradiction(2)

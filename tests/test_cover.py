import pytest

from godeaux3 import cover
from godeaux3.cover import (CaseInvalidError, RamificationData, enumerate_main_cases,
                            fixed_point_budget, h0_pair, kx2, kx2_via_blowup, quotient_k2)


def test_fixed_point_budget_trivial_ramification():
    r = RamificationData(0, 0, 1)
    assert fixed_point_budget(r) == 6
    assert r.r0sq == 0


def test_pencil_case_h1():
    for ell in range(0, 4):
        r = RamificationData(0, ell, 1)
        assert r.h1 == 4 + ell  # h_2 = 1 leaves h_1 = 4 + l


def test_first_case_h1():
    # h_2 = 3 and Gamma^2 = G gives h_1 = (3 - G)/2 + l
    r = RamificationData(1, 0, 3, gamma_sq=-3)
    assert r.h1 == 3
    r = RamificationData(1, 1, 3, gamma_sq=-1)
    assert r.h1 == 3


def test_gamma_sq_validation():
    with pytest.raises(CaseInvalidError):
        RamificationData(1, 0, 3)  # missing gamma_sq
    with pytest.raises(CaseInvalidError):
        RamificationData(1, 0, 3, gamma_sq=3)  # index theorem cap
    with pytest.raises(CaseInvalidError):
        RamificationData(1, 0, 3, gamma_sq=0)  # parity
    with pytest.raises(CaseInvalidError):
        RamificationData(0, 0, 3, gamma_sq=1)  # only with r0k = 1


def test_quotient_k2_agreement():
    for ell in range(0, 4):
        assert quotient_k2(RamificationData(0, ell, 1)) == -2 - 3 * ell
    for ell in range(2, 6):
        assert quotient_k2(RamificationData(0, ell, 4)) == -3 - 3 * ell
    assert quotient_k2(RamificationData(1, 0, 3, gamma_sq=1)) == -3
    assert quotient_k2(RamificationData(1, 1, 3, gamma_sq=-1)) == -9
    assert all(type(quotient_k2(RamificationData(0, ell, 1))) is int for ell in range(4))


def test_quotient_k2_rejects_a_remainder_mod_6():
    # h_2 = 2 with R_0 = 0: both routes give 6 K_Y^2 = -14
    with pytest.raises(CaseInvalidError, match="-14/6 is not an integer"):
        quotient_k2(RamificationData(0, 0, 2))


def test_quotient_k2_rejects_routes_that_disagree(monkeypatch):
    blowup = cover.kx2_via_blowup
    monkeypatch.setattr(cover, "kx2_via_blowup", lambda r: blowup(r) + 1)  # the Euler route
    with pytest.raises(CaseInvalidError, match="disagree"):
        quotient_k2(RamificationData(0, 0, 1))


def test_kx2_both_expressions():
    r = RamificationData(0, 0, 1)
    assert kx2(r, -2) == -6
    assert kx2_via_blowup(r) == 1 - (4 + 3)
    for ell in (0, 1, 2):
        r = RamificationData(0, ell, 1)
        ky2 = quotient_k2(r)
        assert kx2(r, ky2) == kx2_via_blowup(r)


def test_first_case_euler_inequality():
    for gamma_sq in (1, -1, -3, -5):
        for ell in range(0, 3):
            if 2 * ell > 5 + gamma_sq:
                continue
            r = RamificationData(1, ell, 3, gamma_sq=gamma_sq)
            if r.h1 < 1 or r.h1 > 4:
                continue
            ky2 = quotient_k2(r)
            assert ky2 >= kx2(r, ky2)


def test_h0_pair_values():
    assert h0_pair(1, 3) == (3, 1)
    assert h0_pair(0, 4) == (2, 2)
    assert h0_pair(0, 1) == (2, 0)


@pytest.mark.parametrize("r0k,h2", [(0, 7), (1, 6), (1, 0), (0, 0), (0, 2),
                                    (-1, 2), (-3, 1)])
def test_h0_pair_rejections(r0k, h2):
    with pytest.raises(CaseInvalidError):
        h0_pair(r0k, h2)


def test_enumerate_main_cases():
    cases = enumerate_main_cases()
    assert [(c.id, c.r0k, c.h2) for c in cases] == [
        ("i", 1, 3), ("ii", 0, 4), ("iii", 0, 1)]
    assert [(c.h0_n, c.h0_2kb) for c in cases] == [(3, 1), (2, 2), (2, 0)]
    # raising the cap does not change the result
    assert len(enumerate_main_cases(h2_max=60)) == 3


def test_main_case_ids_are_the_three_of_the_paper():
    # h0_pair admits exactly three (R_0.K_S, h_2) pairs, so no other id can occur
    for h2_max in range(0, 61):
        ids = [c.id for c in enumerate_main_cases(h2_max)]
        want = [cid for cid, h2 in (("i", 3), ("ii", 4), ("iii", 1)) if h2 <= h2_max]
        assert ids == want, h2_max


def test_enumeration_sees_the_h0_n_rejection(monkeypatch):
    rejected = set()
    checked = cover.h0_pair

    def spy(r0k, h2):
        try:
            return checked(r0k, h2)
        except CaseInvalidError as exc:
            rejected.add((r0k, str(exc)))
            raise

    monkeypatch.setattr(cover, "h0_pair", spy)
    assert len(enumerate_main_cases()) == 3
    assert (2, "h^0(N) = 4 would make the tricanonical map invariant") in rejected
    assert max(r0k for r0k, _ in rejected) == 2


def test_h2_windows_hold_every_pair_h0_pair_admits():
    # a brute force over a wider grid than the windows finds only the three pairs
    admitted = []
    for r0k in range(3):
        for h2 in range(61):
            try:
                h0_pair(r0k, h2)
            except CaseInvalidError:
                continue
            admitted.append((r0k, h2))
    assert sorted(admitted) == [(0, 1), (0, 4), (1, 3)]
    assert cover.H2_WINDOWS == {0: 4, 1: 4, 2: 5}
    assert all(h2 <= cover.H2_WINDOWS[r0k] for r0k, h2 in admitted)


def test_cases_main_fails_when_h0_pair_admits_one_more_pair(monkeypatch):
    from godeaux3.report import run

    result = run("cases.main").results["cases.main"]
    assert "h_2 <= {0: 4, 1: 4, 2: 5} by R_0.K_S, past which h^0(2K_Y+B) is out of range" \
        in result.trace
    checked = cover.h0_pair

    def spy(r0k, h2):  # admits (0, 2) too, inside its window
        return (2, 0) if (r0k, h2) == (0, 2) else checked(r0k, h2)

    monkeypatch.setattr(cover, "_CASE_IDS", {**cover._CASE_IDS, (0, 2): "iv"})
    monkeypatch.setattr(cover, "h0_pair", spy)
    result = run("cases.main").results["cases.main"]
    assert result.status == "failed"
    assert "('iv', 0, 2)" in result.trace[0]

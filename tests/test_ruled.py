from godeaux3 import ruled
from godeaux3.adjoint import LadderReport, verify_ladder_identity


def test_l_a2_admissible_indices():
    e = ruled.elim_l_a2()
    assert e.survivors == (0, 1, 2)


def test_p_no2():
    e = ruled.elim_p_no2()
    assert e.verdict == "contradiction"
    assert (e.lhs, e.rhs) == ("13", "12")
    assert any("r >= 3" in line for line in e.trace)


def test_t_no0():
    e = ruled.elim_t_no0()
    assert e.verdict == "contradiction"
    assert any("(d-6)^2" in line for line in e.trace)
    assert any("s1 + s2 = 11" in line for line in e.trace)


def test_t_no1_partial_mechanization():
    e = ruled.elim_t_no1()
    assert e.verdict == "contradiction"
    # the pencil branch overshoots the Euler excess
    assert (e.lhs, e.rhs) == ("29", "28")
    # exactly two subcases are left to the assumed companion computation
    assert e.survivors == ((0, 0, 1), (1, 0, 1))


def _ladders():
    return {branch: {ell: verify_ladder_identity(branch, ell) for ell in (0, 1)
                     if branch == "s.3l" or ell == 1}
            for branch in ("s.3l", "s.3l-1", "s.3l-2")}


def test_t_no3ldp_setup_checks():
    e = ruled.elim_t_no3ldp(_ladders())
    assert e.verdict == "contradiction"
    assert any("delegated" in line or "assumed" in line for line in e.trace)


def test_t_no3ldp_reads_the_reports_it_is_given():
    ladders = _ladders()
    ladders["s.3l"][0] = LadderReport("s.3l", ok=False)
    assert ruled.elim_t_no3ldp(ladders).verdict == "failed"

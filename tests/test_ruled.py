import os
import subprocess
import sys
from collections import Counter

import godeaux3
from godeaux3 import plane, ruled
from godeaux3.adjoint import LadderReport, verify_ladder_identity


def _partitions(total, cap):
    """Nonincreasing tuples of positive integers <= cap with the given sum."""
    if total == 0:
        yield ()
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_mult_vector_search_matches_a_brute_force():
    # a vector of nonnegative entries is a partition padded with zeros
    for lin in range(0, 13):
        parts = [(len(p), sum(m * m for m in p), Counter(p)) for p in _partitions(lin, lin)]
        for sq in range(-3, 41):
            for points in range(0, 10):
                brute = {frozenset(c.items()) for k, s, c in parts if k <= points and s == sq}
                got = list(plane.multiplicity_vectors(lin, sq, points))
                assert {frozenset(v.items()) for v in got} == brute, (lin, sq, points)
                assert len(got) == len(brute), (lin, sq, points)
                for v in got:
                    assert list(v) == sorted(v, reverse=True) and all(v.values())
    assert list(plane.multiplicity_vectors(0, 0, 0)) == [{}]


def test_t_no1_scan_needs_no_filter_but_the_first():
    # 2(z1 + z2) + zp <= 4 gives k = 5 - 2(z1 + z2) - zp >= 1, and with
    # d >= k the value 2 lin = 7d - 3(d - k) - 3 - zp is even and >= 0
    for z1 in range(0, 3):
        for z2 in range(0, z1 + 1):
            for zp in range(0, 5):
                if 2 * (z1 + z2) + zp > 4:
                    continue
                k = 5 - 2 * (z1 + z2) - zp
                assert 4 - (z1 + z2) >= 1 and k >= 1
                for d in range(k, 30):
                    twice_lin = 7 * d - 3 * (d - k) - 3 - zp
                    assert twice_lin >= 0 and twice_lin % 2 == 0, (z1, z2, zp, d)


def test_l_a2_admissible_indices():
    e = ruled.elim_l_a2(3)
    assert e.survivors == (0, 1, 2)


def test_p_no2():
    e = ruled.elim_p_no2((0, 1, 2))
    assert e.verdict == "contradiction"
    assert (e.lhs, e.rhs) == ("13", "12")
    assert any("r >= 3" in line for line in e.trace)


def test_t_no0():
    e = ruled.elim_t_no0(3)
    assert e.verdict == "contradiction"
    assert any("(d-6)^2" in line for line in e.trace)
    assert any("s1 + s2 = 11" in line for line in e.trace)


def test_t_no1_partial_mechanization():
    e = ruled.elim_t_no1(2)
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


def test_every_ruled_nine_reads_one_constant():
    # ruled imports the constant by name, so re-import it in a fresh
    # interpreter after shifting plane's copy
    code = (
        "import importlib\n"
        "from godeaux3 import plane, ruled\n"
        "plane.RULED_POINTS += 1\n"
        "importlib.reload(ruled)\n"
        "from godeaux3.report import run\n"
        "print(ruled.elim_t_no0(3).rhs, plane.homaloidal_eliminate('generic')['available'],\n"
        "      plane.fa_ladder_checks(1, 3)['squares'] != [0, 3, 4, 3], run('all').verdict)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(godeaux3.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert plane.RULED_POINTS == 9
    assert out == ["10", "points", "10", "True", "failed"]

import re
import sys
from collections import Counter

import pytest

from godeaux3 import plane, ruled
from godeaux3.adjoint import LadderReport, verify_ladder_identity
from godeaux3.plane import PlaneError
from godeaux3.report import run
from godeaux3.ruled import (fa_ladder_checks, homaloidal_eliminate,
                            singular_fiber_count_bound, singular_fiber_need,
                            _degree_verdict)


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
                got = plane.multiplicity_vectors(lin, sq, points)
                assert {frozenset(v.items()) for v in got} == brute, (lin, sq, points)
                assert len(got) == len(brute), (lin, sq, points)
                for v in got:
                    assert list(v) == sorted(v, reverse=True) and all(v.values())
    assert plane.multiplicity_vectors(0, 0, 0) == [{}]


def test_t_no1_scan_needs_no_filter_but_the_first():
    # 2(z1 + z2) + zp <= 4 gives k = 5 - 2(z1 + z2) - zp >= 1, and with d >= k the
    # value 2 lin = 7d - 3(d - k) - 3 - zp = 4d + c, c = 3k - 3 - zp, is even and >= 0
    for z1 in range(0, 6):
        for z2 in range(0, z1 + 1):
            for zp in range(0, 12):
                k = 5 - 2 * (z1 + z2) - zp
                if k < 1:
                    continue
                assert z1 <= 2 and 2 * (z1 + z2) + zp <= 4
                c = 3 * k - 3 - zp
                assert c % 2 == 0
                for d in range(k, 200):
                    assert 7 * d - 3 * (d - k) - 3 - zp == 4 * d + c >= 0, (z1, z2, zp, d)


def test_t_no1_plane_scan_matches_a_wider_brute_force():
    """Over z_1 <= 5, z' <= 11 and d <= 199, filtered by k >= 1 and mu = d - k >= 0, the
    scan lists every plane model, and its d windows are the d with lin^2 <= 9 sq."""
    brute, windows = [], {}
    for z1 in range(0, 6):
        for z2 in range(0, z1 + 1):
            for zp in range(0, 12):
                k = 5 - 2 * (z1 + z2) - zp
                abar_sq = 1 + z1 * z1 + z2 * z2 + zp * zp
                for d in range(1, 200):
                    if k < 1 or d - k < 0:
                        continue
                    lin = (7 * d - 3 * (d - k) - 3 - zp) // 2
                    sq = d * d - (d - k) ** 2 - abar_sq
                    if lin * lin <= ruled.RULED_POINTS * sq:
                        windows.setdefault((z1, z2, zp), []).append(d)
                    brute += [(z1, z2, zp, d, v)
                              for v in plane.multiplicity_vectors(lin, sq, ruled.RULED_POINTS)]
    models, trace = ruled._t_no1_plane_scan()
    assert models == brute
    assert [(z1, z2, zp, d, sorted(v.items())) for z1, z2, zp, d, v in brute] == [
        (0, 0, 1, 6, [(1, 2), (2, 7)]), (0, 0, 1, 7, [(1, 1), (2, 7), (3, 1)]),
        (0, 0, 1, 8, [(2, 7), (3, 2)]), (1, 0, 1, 4, [(1, 9)])]
    subcase = re.compile(r"\(A'\.Z1, A'\.Z2, A'\.Z'\) = \((\d+),(\d+),(\d+)\): ([^,]+), ")
    spans = {tuple(map(int, m.groups()[:3])): m[4] for m in map(subcase.match, trace)}
    assert len(spans) == 10
    for key, span in spans.items():
        ds = windows.get(key)
        assert span == (f"d in {ds[0]}..{ds[-1]}" if ds else "no d has lin^2 <= 9 sq"), key
        assert ds is None or ds == list(range(ds[0], ds[-1] + 1)), key


def test_l_a2_admissible_indices():
    e = ruled.elim_l_a2(3)
    assert e.survivors == (0, 1, 2)


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
def test_l_a2_matches_a_wider_brute_force(steps):
    """Over a <= 11, c.N >= 0 holds exactly for the a the node admits, and the node's
    values run up to and including the first a with c.N < 0."""
    brute = {a: fa_ladder_checks(a, steps)["c_dot_n"] for a in range(0, 12)}
    assert all(brute[a] == 2 * steps + 1 - steps * a for a in brute)
    e = ruled.elim_l_a2(steps)
    assert e.survivors == tuple(a for a, v in brute.items() if v >= 0)
    first_negative = min(a for a, v in brute.items() if v < 0)
    assert e.trace == tuple(f"a={a}: c.N = {brute[a]}" for a in range(0, first_negative + 1))


def test_l_a2_refuses_a_ladder_where_c_n_does_not_fall():
    with pytest.raises(PlaneError, match="does not fall"):
        ruled.elim_l_a2(0)


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
    failed = LadderReport("s.3l")
    failed.failures.append("N3 does not vanish in the model")
    ladders["s.3l"][0] = failed
    assert ruled.elim_t_no3ldp(ladders).verdict == "failed"


def test_every_ruled_nine_reads_one_constant(monkeypatch):
    monkeypatch.setattr(ruled, "RULED_POINTS", 10)
    assert ruled.elim_t_no0(3).rhs == "10 points"
    assert homaloidal_eliminate("generic")["available"] == 10
    assert fa_ladder_checks(1, 3)["squares"] != [0, 3, 4, 3]
    assert run("all").verdict == "failed"


def test_ruled_reaches_into_plane_only_for_the_multiplicity_search():
    # every plane function entered from a ruled frame during a full run
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "godeaux3.plane":
            back = frame.f_back
            if back is not None and back.f_globals.get("__name__") == "godeaux3.ruled":
                entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        report = run("all")
    finally:
        sys.setprofile(None)
    assert report.verdict == "verified"
    # the inner recursion ``rec`` is entered from plane frames only
    assert entered == {"multiplicity_vectors"}


def test_homaloidal_generic():
    res = homaloidal_eliminate("generic")
    assert res["verdict"] == "contradiction"
    assert res["poly"] == (36, -12, 1)  # the exact square (d - 6)^2
    assert res["min_points"] >= 11
    # 6 s3 + 2 s2 is then 16 - 12 s4 with s4 in {0, 1}: even, so each s3 fixes s2
    assert "20 s5 + 12 s4 + 6 s3 + 2 s2 = 16" in res["trace"]


def test_homaloidal_full_system():
    res = homaloidal_eliminate("A'=N")
    assert res["verdict"] == "contradiction"
    assert res["d"] == 6 and res["required_degree"] == 10


def test_forced_degree_is_compared_with_the_required_one():
    assert _degree_verdict((36, -12, 1), 10) == (6, "contradiction")
    assert _degree_verdict((100, -20, 1), 10) == (10, "survives")  # (d-10)^2
    assert _degree_verdict((200, -40, 2), 10) == (10, "survives")  # 2 (d-10)^2
    # not a square, not quadratic, and (2d - 3)^2 with no integer root
    for poly in ((35, -12, 1), (36, -12, 0), (9, -12, 4)):
        with pytest.raises(PlaneError):
            _degree_verdict(poly, 10)


def test_singular_fiber_count_bound():
    assert singular_fiber_count_bound(2, 6) == 3
    assert singular_fiber_count_bound(1, 3) == 2
    assert singular_fiber_count_bound(0, 0) == 2
    with pytest.raises(PlaneError):
        singular_fiber_count_bound(3, 9)


def test_singular_fiber_need_sets_the_count_bound():
    for a in (0, 1, 2):
        for beta in range(0, 10):
            need, r = singular_fiber_need(a, beta), singular_fiber_count_bound(a, beta)
            assert need == 2 * beta + 7 - 3 * a
            assert 6 * (r - 1) < need <= 6 * r
    with pytest.raises(PlaneError):
        singular_fiber_need(3, 9)


def test_fa_ladder_identities():
    deep = fa_ladder_checks(1, 3)
    assert deep["squares"] == [0, 3, 4, 3]
    assert deep["c_dot_n"] == 4
    assert deep["branch_coeffs"] == {"c": 12, "f": 19, "delta": -6}
    for a in (0, 1, 2):
        assert fa_ladder_checks(a, 3)["c_dot_n"] == 7 - 3 * a
        assert fa_ladder_checks(a, 3)["branch_coeffs"]["f"] == 6 * a + 13
    assert fa_ladder_checks(3, 3)["c_dot_n"] < 0  # F_3 is not nef-admissible
    middle = fa_ladder_checks(1, 2)
    assert middle["squares"][-1] == 4
    assert middle["c_dot_n"] == 3
    assert fa_ladder_checks(2, 2)["c_dot_n"] == 5 - 2 * 2


import random
import sys

import pytest
from hypothesis import given, strategies as st

from godeaux3.plane import (PlaneCurve, PlaneError, PointCluster,
                            admissible_base, cremona_orbit_connect, multiplicity_vectors,
                            quadratic_transform, solve_multiplicity_system, state_from_solution,
                            _transform_curve)

PRINTED_SOLUTIONS = [
    (3, {1: 7}),
    (4, {2: 2, 1: 6}),
    (5, {2: 5, 1: 3}),
    (6, {3: 1, 2: 6, 1: 1}),
    (7, {3: 3, 2: 5}),
    (8, {3: 6, 2: 2}),
    (9, {4: 1, 3: 7}),
]


def brute_force_oracle(c1, c2, max_points, d_hi=12, j_max=None):
    """Independent check: direct nested loops over the s_j grid.

    Multiplicities run up to ``j_max``, by default the largest degree ``d_hi``.
    """
    j_max = d_hi if j_max is None else j_max
    found = []
    for d0 in range(0, d_hi + 1):
        t_sq, t_lin = d0 * d0 - c1, 3 * d0 - c2
        if t_sq < 0 or t_lin < 0:
            continue
        ranges = [range(0, max_points + 1)] * j_max
        stack = [(1, {}, 0, 0, 0)]
        while stack:
            j, acc, pts, lin, sq = stack.pop()
            if j > j_max:
                if lin == t_lin and sq == t_sq:
                    found.append((d0, {k: v for k, v in acc.items() if v}))
                continue
            for s in ranges[j - 1]:
                npts = pts + s
                nlin = lin + j * s
                nsq = sq + j * j * s
                if npts > max_points or nlin > t_lin or nsq > t_sq:
                    break
                nd = dict(acc)
                nd[j] = s
                stack.append((j + 1, nd, npts, nlin, nsq))
    return sorted(found, key=lambda x: (x[0], sorted(x[1].items())))


def test_solutions_match_printed_list():
    sols = solve_multiplicity_system(2, 2, 8)
    assert sols == PRINTED_SOLUTIONS


def test_solver_matches_oracle():
    assert solve_multiplicity_system(2, 2, 8) == brute_force_oracle(2, 2, 8)
    # and on a couple of other systems
    for c1, c2, mp in ((1, 1, 8), (2, 3, 8), (0, 2, 6)):
        got = sorted(solve_multiplicity_system(c1, c2, mp),
                     key=lambda x: (x[0], sorted(x[1].items())))
        assert got == brute_force_oracle(c1, c2, mp)


@pytest.mark.parametrize("triple", [(1, 3, 9), (2, 2, 10)])
def test_solver_matches_oracle_on_shared_degrees(triple):
    """Systems with several solutions of one degree and multiplicity 7."""
    got = solve_multiplicity_system(*triple)
    assert len({d for d, _ in got}) < len(got)
    assert any(7 in mults for _, mults in got)
    assert sorted(got, key=lambda x: (x[0], sorted(x[1].items()))) == \
        brute_force_oracle(*triple)


SOLVE_GRID = [(c1, c2, max_points) for c1 in range(6) for c2 in range(6)
              for max_points in (8, 9, 10)]


def test_solver_total_without_duplicates():
    for triple in SOLVE_GRID:
        sols = solve_multiplicity_system(*triple)
        keys = [(d, tuple(sorted(m.items()))) for d, m in sols]
        assert len(set(keys)) == len(keys), triple
        # the enumeration itself gives the documented order; nothing sorts it
        assert sols == sorted(sols, key=lambda s: (s[0], sorted(s[1].items(), reverse=True))), \
            triple
        assert all(list(m) == sorted(m, reverse=True) for _, m in sols), triple
    assert multiplicity_vectors(-1, 0, 8) == []
    assert multiplicity_vectors(0, 0, 0) == [{}]


def _search_states(triples) -> dict:
    """Calls of ``multiplicity_vectors``' inner recursion per solver triple."""
    rec = next(c for c in multiplicity_vectors.__code__.co_consts
               if getattr(c, "co_name", None) == "rec")
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is rec:
            count += 1

    states = {}
    for triple in triples:
        count = 0
        sys.setprofile(profile)
        try:
            solve_multiplicity_system(*triple)
        finally:
            sys.setprofile(None)
        states[triple] = count
    return states


def test_search_tree_is_pinned():
    # a prune must change these on purpose: they are the states of the search
    # with only the j^2 <= sq start and the Cauchy-Schwarz cut
    states = _search_states(SOLVE_GRID)
    assert states[(2, 2, 8)] == 773
    assert states[(0, 0, 9)] == 680
    assert states[(5, 5, 10)] == 20_699
    assert sum(states.values()) == 1_107_244


def test_no_solutions_outside_degree_window():
    sols = solve_multiplicity_system(2, 2, 8)
    assert min(d for d, _ in sols) == 3
    assert max(d for d, _ in sols) == 9
    # the solver stops at degree 12; beyond degree 10 eight points cannot carry
    # sum j s_j = 3d - 2 and sum j^2 s_j = d^2 - 2, by Cauchy-Schwarz:
    # 8(d^2 - 2) - (3d - 2)^2 = -(d - 2)(d - 10)
    for d in range(11, 200):
        assert (3 * d - 2) ** 2 > 8 * (d * d - 2), d


def test_plane_curve_basics():
    c = PlaneCurve("B0", 9, (4, 3, 3, 3, 3, 3, 3, 3))
    assert c.self_int() == 81 - 16 - 7 * 9 == 2
    assert c.genus() == 28 - 6 - 7 * 3 == 1
    other = PlaneCurve("L", 1, (1, 1, 0, 0, 0, 0, 0, 0))
    assert c.dot(other) == 9 - 7
    with pytest.raises(PlaneError):
        PlaneCurve("a", 3, (1, 1, 1)).dot(PlaneCurve("b", 2, (1, 1)))  # not 6 - 2
    with pytest.raises(PlaneError):
        PlaneCurve("bad", 2, (-1, 0, 0))  # negative multiplicity needs the flag
    PlaneCurve("ok", 0, (-1, 1, 0), virtual=True)


def test_point_cluster_invariants():
    cluster = PointCluster(("P1", "P2", "P3"), (("P2", "P1"),))
    with pytest.raises(PlaneError):
        PointCluster(("P1", "P2"), (("P1", "P2"), ("P2", "P1")))  # cycle


def _dfs_cluster_check(points, proximity):
    """The hand-written cycle search ``PointCluster`` ran before it used ``graphlib``,
    kept as the reference: the same two errors, the same checks in the same order."""
    index = {p: i for i, p in enumerate(points)}
    for child, parent in proximity:
        if child not in index or parent not in index:
            raise PlaneError("proximity edge outside the cluster")
    done = set()

    def visit(p, stack):
        if p in stack:
            raise PlaneError("proximity relation has a cycle")
        if p in done:
            return
        for ch, par in proximity:
            if ch == p:
                visit(par, stack + (p,))
        done.add(p)

    for p in points:
        visit(p, ())


def _outcome(check, points, proximity):
    try:
        check(points, proximity)
    except PlaneError as exc:
        return str(exc)
    return "ok"


def test_point_cluster_matches_the_reference_cycle_search():
    rng = random.Random(24)
    names = [f"P{i}" for i in range(1, 8)]
    seen = set()
    for _ in range(3000):
        points = tuple(names[:rng.randint(1, 6)])
        # one name past the cluster now and then, self-loops included
        pool = names[:len(points) + (rng.random() < 0.2)]
        proximity = tuple((rng.choice(pool), rng.choice(pool))
                          for _ in range(rng.randint(0, 6)))
        want = _outcome(_dfs_cluster_check, points, proximity)
        assert _outcome(PointCluster, points, proximity) == want, (points, proximity)
        seen.add(want)
    assert seen == {"ok", "proximity relation has a cycle", "proximity edge outside the cluster"}


def test_proximity_inequality():
    cluster = PointCluster(("P1", "P2"), (("P2", "P1"),))
    good = PlaneCurve("c", 3, (2, 1))
    bad = PlaneCurve("c", 3, (1, 2))
    assert cluster.proximity_ok(good)
    assert not cluster.proximity_ok(bad)
    assert cluster.proximity_ok(PlaneCurve("v", 0, (-1, 1), virtual=True))


def _single_curve_setup(degree, mults):
    points = tuple(f"P{i}" for i in range(1, len(mults) + 1))
    return PointCluster(points), [PlaneCurve("C", degree, tuple(mults))]


def test_quadratic_transform_printed_move():
    # the degree-9 solution maps to the degree-8 one
    cluster, curves = _single_curve_setup(9, (4, 3, 3, 3, 3, 3, 3, 3))
    new = quadratic_transform(cluster, curves, ("P1", "P2", "P3"))
    assert new[0].degree == 8
    assert sorted(new[0].mults, reverse=True) == [3, 3, 3, 3, 3, 3, 2, 2]


def test_quadratic_transform_involution():
    cluster, curves = _single_curve_setup(9, (4, 3, 3, 3, 3, 3, 3, 3))
    once = quadratic_transform(cluster, curves, ("P1", "P2", "P3"))
    # the image's triple (3, 2, 2) has no certificate, so apply the formula itself
    twice = _transform_curve(once[0], (0, 1, 2))
    assert twice.degree == curves[0].degree
    assert twice.mults == curves[0].mults


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_transform_involution_random(m1, m2, m3):
    d = 7
    mults = (m1, m2, m3, 1, 1)
    curve = PlaneCurve("C", d, mults, virtual=True)
    twice = _transform_curve(_transform_curve(curve, (0, 1, 2)), (0, 1, 2))
    assert twice.mults == curve.mults and twice.degree == d


def test_transform_preserves_invariants():
    cluster = PointCluster(tuple(f"P{i}" for i in range(1, 9)))
    b0 = PlaneCurve("B0", 9, (4, 3, 3, 3, 3, 3, 3, 3))
    e1 = PlaneCurve("E1", 3, (1, 1, 1, 1, 1, 1, 1, 1))
    new = quadratic_transform(cluster, [b0, e1], ("P1", "P2", "P3"))
    assert new[0].self_int() == b0.self_int()
    assert new[0].dot(new[1]) == b0.dot(e1)
    assert new[1].genus() == e1.genus()


def test_inadmissible_base_triples():
    cluster = PointCluster(tuple(f"P{i}" for i in range(1, 9)))
    flat = [PlaneCurve("C", 9, (3, 3, 3, 0, 0, 0, 0, 0))]
    ok, why = admissible_base(flat, cluster, ("P1", "P2", "P3"))
    assert not ok and "non-collinear" in why
    prox = PointCluster(("P1", "P2", "P3"), (("P2", "P1"),))
    ok, why = admissible_base([PlaneCurve("C", 2, (1, 1, 1))], prox,
                              ("P1", "P2", "P3"))
    assert not ok and "proximate" in why


def test_lemma_move_on_the_middle_sixtuple():
    # base at P1, P2, P8 turns (8,1,1,0,0,0) into the tuple with the line at
    # the other slot of the pencil-orthogonal pair
    from godeaux3.delpezzo import table_8pt

    table = table_8pt("8-1-1-0-0-0")
    rows = quadratic_transform(table.cluster, list(table.rows), ("P1", "P2", "P8"))
    degrees = tuple(r.degree for r in rows)
    assert degrees == (8, 1, 0, 0, 1, 0)
    by = {r.name: r for r in rows}
    assert by["E2"].mults == (-1, 0, 0, 0, 0, 0, 0, 0)
    assert by["E4"].mults == (0, 1, 0, 0, 0, 0, 1, 1)


def test_orbit_connects_all_solutions():
    sols = solve_multiplicity_system(2, 2, 8)
    chains = cremona_orbit_connect(sols)
    assert len(chains) == 7
    assert max(len(p) for p in chains.values()) <= 6


def _depth_capped_orbit_connect(solutions, depth=12):
    """The orbit search as it was with a depth cap, kept as a reference."""
    from godeaux3.plane import PlaneError, _moves

    states = {state_from_solution(d0, s): (d0, s) for d0, s in solutions}
    start = max(states)
    frontier = [start]
    paths = {start: []}
    while frontier:
        nxt = []
        for state in frontier:
            if len(paths[state]) >= depth:
                continue
            for triple, new_state in _moves(state):
                if new_state not in paths:
                    paths[new_state] = paths[state] + [(state, triple, new_state)]
                    nxt.append(new_state)
        frontier = nxt
    missing = [s for s in states if s not in paths]
    if missing:
        raise PlaneError(f"orbit search exhausted; unreachable: {missing}")
    return {state: paths[state] for state in states}


def test_every_move_lowers_the_degree():
    from godeaux3.plane import _moves

    sols = solve_multiplicity_system(2, 2, 8)
    seen = {state_from_solution(d, s) for d, s in sols}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for _, new in _moves(state):
            assert new[0] < state[0], (state, new)
            if new not in seen:
                seen.add(new)
                frontier.append(new)


def _inline_moves(state: tuple):
    """The orbit search's moves with the transform, its certificate and the
    proximity refutation written out inline, kept as a reference."""
    d, mults = state
    n = len(mults)
    seen_triples = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                triple = (mults[i], mults[j], mults[k])
                if triple in seen_triples:
                    continue
                seen_triples.add(triple)
                s = sum(triple)
                if s <= d:
                    continue  # no non-collinearity certificate
                if any(triple[x] >= s - triple[x] for x in range(3)):
                    continue
                new_d = 2 * d - s
                if new_d < 0:
                    continue
                new = list(mults)
                new[i] = d - triple[1] - triple[2]
                new[j] = d - triple[0] - triple[2]
                new[k] = d - triple[0] - triple[1]
                if any(v < 0 for v in new):
                    continue
                yield triple, (new_d, tuple(sorted(new, reverse=True)))


def test_moves_match_the_inline_formula():
    # every state the orbit search reaches from the systems with c1, c2 in 0..5,
    # and every eight-point state of degree <= 5, where bases with a negative
    # degree or multiplicity occur
    from itertools import combinations_with_replacement

    from godeaux3.plane import _moves

    seen = {state_from_solution(d, s) for c1 in range(6) for c2 in range(6)
            for d, s in solve_multiplicity_system(c1, c2, 8)}
    assert all(list(m) == sorted(m, reverse=True) for _, m in seen)  # multiplicities run down
    frontier = list(seen)
    while frontier:
        for _, new in _moves(frontier.pop()):
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    reached = len(seen)
    seen |= {(d, m[::-1]) for d in range(6) for m in combinations_with_replacement(range(d + 1), 8)}
    states = sorted(seen)
    moves = [list(_moves(s)) for s in states]
    assert moves == [list(_inline_moves(s)) for s in states]
    assert (reached, len(states), sum(map(len, moves))) == (400, 2343, 1706)


def test_moves_skip_what_would_not_be_a_curve():
    from godeaux3.plane import _moves

    # s = 9 > 2d: the image would have degree -3
    assert _transform_curve(PlaneCurve("C", 3, (3, 3, 3)), (0, 1, 2)) is None
    assert list(_moves((3, (3, 3, 3, 0, 0, 0, 0, 0)))) == []
    # s = 7 > d = 4, but d - 3 - 3 < 0 at the simple point
    assert _transform_curve(PlaneCurve("C", 4, (3, 3, 1)), (0, 1, 2)).virtual
    assert (3, 3, 1) not in {t for t, _ in _moves((4, (3, 3, 1, 0, 0, 0, 0, 0)))}


def test_orbit_search_without_a_depth_cap_gives_the_capped_chains():
    from itertools import combinations

    sols = solve_multiplicity_system(2, 2, 8)
    subsets = [list(c) for k in range(1, len(sols) + 1) for c in combinations(sols, k)]
    assert len(subsets) == 127
    for subset in subsets:
        assert cremona_orbit_connect(subset) == _depth_capped_orbit_connect(subset)


def test_orbit_pairwise_within_six_moves():
    # every quadratic transform is an involution, so each certified move is
    # reversible; pairwise distances use the undirected move graph
    sols = solve_multiplicity_system(2, 2, 8)
    states = [state_from_solution(d, s) for d, s in sols]
    from godeaux3.plane import _moves

    adjacency: dict[tuple, set] = {}
    frontier = list(states)
    seen = set(states)
    while frontier:
        s = frontier.pop()
        for _, t in _moves(s):
            adjacency.setdefault(s, set()).add(t)
            adjacency.setdefault(t, set()).add(s)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    for start in states:
        dist = {start: 0}
        queue = [start]
        while queue:
            cur = queue.pop(0)
            for t in adjacency.get(cur, ()):
                if t not in dist:
                    dist[t] = dist[cur] + 1
                    queue.append(t)
        assert all(dist.get(s, 99) <= 6 for s in states)


def test_orbit_moves_preserve_budget():
    # the anticanonical pairing 3d - sum(m) is preserved by every move
    from godeaux3.plane import _moves

    state = state_from_solution(9, {4: 1, 3: 7})
    seen = {state}
    frontier = [state]
    while frontier:
        nxt = []
        for s in frontier:
            for _, t in _moves(s):
                assert 3 * t[0] - sum(t[1]) == 3 * s[0] - sum(s[1])
                assert t[0] ** 2 - sum(m * m for m in t[1]) == \
                    s[0] ** 2 - sum(m * m for m in s[1])
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt


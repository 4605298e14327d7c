from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from godeaux3.lattice import (DivisorClass, IntersectionLattice, LatticeError,
                              ParityError, arithmetic_genus, blow_up,
                              hodge_index_filter, intersect)


@pytest.fixture
def plane5():
    return IntersectionLattice.plane_blow_up(5)


def test_gram_diagonal(plane5):
    h = plane5.basis_class("H")
    e1 = plane5.basis_class("E1")
    assert intersect(h, h) == 1
    assert intersect(e1, e1) == -1
    assert intersect(h, e1) == 0


def test_canonical_plane_convention(plane5):
    assert plane5.canonical == (-3, 1, 1, 1, 1, 1)
    assert plane5.k.square == 9 - 5


def test_case_iii_model_has_n_square_3():
    # classes read off the fourteen-point configuration realize the pencil class
    from godeaux3.delpezzo import table_14pt

    lat = IntersectionLattice.plane_blow_up(14)
    table = table_14pt("lines-lines")
    classes = {r.name: lat.divisor((r.degree,) + tuple(-m for m in r.mults))
               for r in table.rows}
    g = lat.basis_class("E14")
    e_total = sum((classes[f"E{i}"] for i in range(2, 6)), classes["E1"])
    n = 3 * lat.k + 2 * classes["B0"] + e_total - 3 * g
    assert n.square == 3
    assert n.dot(lat.k) == 1
    assert arithmetic_genus(n) == 3


def test_arithmetic_genus_examples(plane5):
    line = plane5.divisor([1, 0, 0, 0, 0, 0])
    assert arithmetic_genus(line) == 0
    conic = plane5.divisor([2, -1, -1, 0, 0, 0])  # strict transform through 2 points
    assert arithmetic_genus(conic) == 0
    cubic = plane5.divisor([3, 0, 0, 0, 0, 0])
    assert arithmetic_genus(cubic) == 1


def test_genus_n1_square_one():
    # the anticanonical class: D^2 = 1, D.K = -1 and genus 1
    lat = IntersectionLattice.plane_blow_up(8)
    d = lat.divisor([3, -1, -1, -1, -1, -1, -1, -1, -1])
    assert d.square == 1
    assert arithmetic_genus(d) == 1


def test_parity_error():
    # a class with odd D^2 + D.K flags an inconsistent candidate
    lat = IntersectionLattice(("a",), ((1,),), (0,))
    with pytest.raises(ParityError):
        arithmetic_genus(lat.divisor([1]))


def test_parity_holds_on_ladder_classes():
    # every class in the adjoint chains has even D^2 + D.K
    from godeaux3.adjoint import adjoint_table, CycleCounts

    for ell in range(0, 4):
        for n in range(max(0, 3 * ell - 4), 3 * ell + 1):
            rows = adjoint_table(0, -2 - 3 * ell, 1, CycleCounts(n, 0, 1, 1))
            for row in rows:
                assert (row.ni2 + row.nik) % 2 == 0


def test_blow_up_chain():
    lat = IntersectionLattice.plane_blow_up(0)
    lat1 = blow_up(lat)
    assert lat1.canonical == (-3, 1)
    for _ in range(13):
        lat1 = blow_up(lat1)
    assert lat1.rank == 15
    assert lat1.k.square == 9 - 14
    assert blow_up(lat1).rank == lat1.rank + 1


def test_blow_up_is_isometric_on_old_classes():
    lat = IntersectionLattice.plane_blow_up(3)
    bigger = blow_up(lat)
    d1 = lat.divisor([2, 1, 0, 1])
    d2 = lat.divisor([5, 2, 2, 1])
    e1 = bigger.divisor(d1.coeffs + (0,))
    e2 = bigger.divisor(d2.coeffs + (0,))
    assert d1.dot(d2) == e1.dot(e2)


def test_lattice_mismatch(plane5):
    other = IntersectionLattice.plane_blow_up(5)
    # equal lattices are fine even as separate objects
    assert intersect(plane5.basis_class("H"), other.basis_class("H")) == 1
    small = IntersectionLattice.plane_blow_up(2)
    with pytest.raises(LatticeError):
        intersect(plane5.basis_class("H"), small.basis_class("H"))


def test_hodge_index_filter(plane5):
    n = plane5.divisor([2, 1, 0, 0, 0, 0])
    assert n.square == 3
    assert hodge_index_filter(n, n)  # proportional classes pass with equality
    # D.N = 2 and D^2 = 2 against N^2 = 3: (3D - 2N)^2 = 6 > 0
    lat2 = IntersectionLattice(("a", "b"), ((2, 2), (2, 3)), (0, 0))
    nn = lat2.divisor([0, 1])
    dd = lat2.divisor([1, 0])
    assert nn.square == 3 and dd.square == 2 and dd.dot(nn) == 2
    assert (3 * dd - 2 * nn).square == 6
    assert not hodge_index_filter(dd, nn)


def test_hodge_index_canonical_bound():
    # A.K = 2 with K^2 = 1 forces A^2 <= 4
    lat = IntersectionLattice(("k", "x"), ((1, 2), (2, 4)), (0, 0))
    k = lat.divisor([1, 0])
    a = lat.divisor([0, 1])
    assert k.square == 1 and a.dot(k) == 2 and a.square == 4
    assert (a - 2 * k).square == 0
    assert hodge_index_filter(a, k)


def test_index_filter_requires_positive_square(plane5):
    e1 = plane5.basis_class("E1")
    with pytest.raises(LatticeError):
        hodge_index_filter(plane5.basis_class("H"), e1)


@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.integers(-4, 4), st.integers(-4, 4))
def test_bilinearity(u, v, w, a, b):
    lat = IntersectionLattice.plane_blow_up(3)
    du, dv, dw = lat.divisor(u), lat.divisor(v), lat.divisor(w)
    assert (a * du + b * dv).dot(dw) == a * du.dot(dw) + b * dv.dot(dw)
    assert du.dot(dv) == dv.dot(du)


@st.composite
def _gram_and_pair(draw):
    """A symmetric integer Gram of rank 1-12 and two vectors with zeros among them."""
    n = draw(st.integers(1, 12))
    entries = st.integers(-3, 3)
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    vector = st.lists(st.sampled_from((0, 0, -2, -1, 1, 3)), min_size=n, max_size=n)
    return gram, tuple(draw(vector)), tuple(draw(vector))


@given(_gram_and_pair())
def test_dot_matches_the_double_sum(data):
    gram, u, v = data
    n = len(gram)
    lat = IntersectionLattice(tuple(f"e{i}" for i in range(n)), gram, (0,) * n)
    naive = sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
    assert lat.dot(u, v) == naive
    assert lat.divisor(u).dot(lat.divisor(v)) == naive


def test_dot_rejects_vectors_of_the_wrong_length(plane5):
    full = (1,) * plane5.rank
    for short, long_ in ((full[:-1], full), (full, full + (1,))):
        with pytest.raises(LatticeError):
            plane5.dot(short, long_)
        with pytest.raises(LatticeError):
            plane5.dot(long_, short)


def test_equal_lattices_mix_and_different_ones_raise():
    a, b = IntersectionLattice.plane_blow_up(5), IntersectionLattice.plane_blow_up(5)
    assert a is not b and a == b
    h, e1 = a.basis_class("H"), b.basis_class("E1")
    assert (h + e1).dot(e1) == -1
    assert (h - e1).lattice is a
    heavier = replace(a, gram=tuple(tuple(-2 if i == j == 5 else x for j, x in enumerate(row))
                                    for i, row in enumerate(a.gram)))
    for other in (heavier, blow_up(a), IntersectionLattice.hirzebruch(1)):
        with pytest.raises(LatticeError):
            h.dot(other.divisor((1,) * other.rank))
    with pytest.raises(LatticeError):
        h + heavier.basis_class("H")


def test_serialization_round_trip(plane5):
    data = plane5.to_json()
    back = IntersectionLattice.from_json(data, name=plane5.name)
    assert back.gram == plane5.gram and back.canonical == plane5.canonical
    d = plane5.divisor([1, 2, 3, 4, 5, 6])
    blob = d.to_json()
    assert blob["coeffs"] == [1, 2, 3, 4, 5, 6]


def test_hirzebruch_lattice():
    f2 = IntersectionLattice.hirzebruch(2)
    c, f = f2.basis_class("c"), f2.basis_class("f")
    assert c.square == -2 and f.square == 0 and c.dot(f) == 1
    assert f2.k.coeffs == (-2, -4)
    assert f2.k.square == 8

import pytest

from godeaux3.pencil import (Q_ATOMS, Q_CUSP, Q_NODE, Q_SIMPLE, Q_TRIPLE, _q_dot,
                             ar0_upper, enumerate_pencil_cases, genus_from_case,
                             pencil_case, subsystem_split)

PRINTED_0 = [
    ("0a", 2, 0, 1, 0, "E1+E2"),
    ("0b", 2, 1, 1, 0, "2F+G+H"),
    ("0c", 3, 0, 1, 0, "E1+E2+E3"),
    ("0d", 3, 1, 1, 0, "E1+2F+G+H"),
    ("0e", 4, 0, 1, 0, "2E1"),
    ("0f", 5, 0, 1, 0, "2E1+E2"),
    ("0g", 9, 0, 2, 2, "3F+3G+3H"),
    ("0h", 9, 0, 1, 0, "3E1"),
]

PRINTED_1 = [
    ("1a", 3, 0, 2, 1, "0"),
    ("1b", 3, 3, 1, -1, "0"),
    ("1c", 3, 6, 0, -3, "0"),
    ("1d", 5, 0, 2, 1, "2F+G+H"),
    ("1e", 5, 3, 1, -1, "2F+G+H"),
    ("1f", 9, 0, 2, 1, "3F+2G+3H"),
]


def test_subsystem_split():
    branches = subsystem_split()
    assert [(b.ak, b.phik, b.a2_options) for b in branches] == [
        (2, 1, (0, 2, 4)), (3, 0, (1, 3, 5, 7)), (3, 0, (9,))]
    assert branches[0].pa_phi_max == 2
    assert branches[1].pa_phi_max == 0
    assert branches[2].pa_phi_max is None  # no fixed part at all


def test_ar0_upper():
    assert ar0_upper(0, 1) == 6
    assert ar0_upper(1, 0) == 8
    assert ar0_upper(9, 0) == 0
    assert ar0_upper(4, 1) == 2


# every argument set of the enumeration up to five A_2-type points
WIDE_LISTS = [(ap, h2, filt, enumerate_pencil_cases(ap, h2, filt))
              for ap in range(4) for h2 in range(1, 6) for filt in (True, False)]


def _q_parts(case):
    """The F/G/H content of a row, one (F, G, H) triple per q-atom."""
    q = [m for comp, m in case.d if not comp.startswith("E")]
    return [dict(zip("FGH", q[i:i + 3])) for i in range(0, len(q), 3)]


def test_big_drop_atoms_occur_only_at_a2_9():
    # an atom dropping 8 or 9 needs A^2 >= 8, and 9 is the only such A^2 option
    assert sorted(a.self_int_drop for a in Q_ATOMS if a.self_int_drop >= 8) == [8, 9]
    assert [a2 for b in subsystem_split() for a2 in b.a2_options if a2 >= 8] == [9]
    for ap, h2, filt, cases in WIDE_LISTS:
        for case in cases:
            if any(-_q_dot(d, d) >= 8 for d in _q_parts(case)):
                assert case.a2 == 9, (ap, h2, filt, case.label)


def test_no_phi_zero_row_mixes_p_and_q_content():
    # with Phi = 0, that is A^2 = 9, a p-multiplicity is 0 mod 3, so at least 3, and
    # takes the whole drop of 9: A then misses every q
    for ap, h2, filt, cases in WIDE_LISTS:
        for case in cases:
            if case.a2 == 9:
                has_e = any(comp.startswith("E") for comp, _ in case.d)
                assert not (has_e and _q_parts(case)), (ap, h2, filt, case.label)


def test_ar0_upper_is_nonnegative_on_every_branch():
    # the branches' A^2 options are disjoint, so A^2 determines Phi.K_S
    phik = {a2: b.phik for b in subsystem_split() for a2 in b.a2_options}
    assert all(ar0_upper(a2, k) >= 0 for a2, k in phik.items())
    for ap, h2, filt, cases in WIDE_LISTS:
        for case in cases:
            assert 0 <= case.ar0 <= ar0_upper(case.a2, phik[case.a2]), (ap, h2, filt, case.label)


def test_genus_from_case():
    assert genus_from_case(2, 1, 0, 0, 0) == 1   # the simple base point case
    assert genus_from_case(3, 0, -3, 0, 0) == 2  # ordinary triple point
    assert genus_from_case(3, 0, 0, 0, 1) == 2   # no exceptional content
    assert genus_from_case(3, 0, 0, -1, 0) is None  # 6g = 8: not an integer, rejected


def test_atom_catalog():
    assert Q_SIMPLE.self_int_drop == 2 and Q_SIMPLE.dg == 0
    assert Q_NODE.self_int_drop == 6 and Q_NODE.dg == 0
    # the drop of the cusp shape is computed from its printed composition
    assert Q_CUSP.self_int_drop == 5 and Q_CUSP.dg == -1
    assert Q_TRIPLE.self_int_drop == 9 and Q_TRIPLE.dg == -3


def test_list_0():
    cases = enumerate_pencil_cases(0)
    got = [(c.label, c.a2, c.ar0, c.g, c.apk, c.d_string()) for c in cases]
    assert got == PRINTED_0


def test_list_1():
    cases = enumerate_pencil_cases(1)
    got = [(c.label, c.a2, c.ar0, c.g, c.apk, c.d_string()) for c in cases]
    assert got == PRINTED_1


def test_list_2_empty():
    assert enumerate_pencil_cases(2) == []


def test_full_system_case():
    cases = enumerate_pencil_cases(3)
    assert len(cases) == 1
    c = cases[0]
    assert (c.label, c.a2, c.g, c.apk) == ("N", 9, 3, 1)


def test_filters_only_remove():
    for aprime2 in (0, 1, 2):
        strict = {(c.a2, c.ar0, c.g, c.d) for c in enumerate_pencil_cases(aprime2)}
        loose = {(c.a2, c.ar0, c.g, c.d)
                 for c in enumerate_pencil_cases(aprime2, apply_orbit_filters=False)}
        assert strict <= loose
    assert len(enumerate_pencil_cases(0, apply_orbit_filters=False)) > len(PRINTED_0)


def test_invariants_of_emitted_cases():
    from godeaux3.pencil import _q_dot

    for aprime2 in (0, 1, 3):
        for c in enumerate_pencil_cases(aprime2):
            d = dict(c.d)
            drop = c.a2 - 3 * c.aprime2
            # recompute the drop from the composition
            fgh = {k: d.get(k, 0) for k in ("F", "G", "H")}
            q_drop = -_q_dot(fgh, fgh)
            p_drop = sum(m * m for comp, m in c.d if comp.startswith("E"))
            assert q_drop + p_drop == drop
            assert 0 <= c.ar0 <= ar0_upper(c.a2, 1 if c.a2 % 2 == 0 else 0)
            assert c.apk == 2 * c.g - 2 - c.aprime2


def test_a_prime_g_incidence():
    # A'.G' = 1 exactly for the triple atom, 0 otherwise
    for c in enumerate_pencil_cases(0) + enumerate_pencil_cases(1):
        d = dict(c.d)
        dg = d.get("F", 0) - 3 * d.get("G", 0) + d.get("H", 0)
        apg = -dg // 3
        assert apg == (1 if c.label == "0g" else 0)


def test_a_prime_h_vanishes_for_simple_atom():
    # D = 2F + G + H forces A'.H' = 0
    for label in ("0b", "0d", "1d", "1e"):
        d = dict(pencil_case(label).d)
        assert d.get("H", 0) - d.get("G", 0) == 0


def test_pencil_case_lookup():
    c = pencil_case("0g")
    assert c.label == "0g" and c.a2 == 9  # Phi = 0
    assert c.d == (("F", 3), ("G", 3), ("H", 3))
    with pytest.raises(KeyError):
        pencil_case("0z")


@pytest.mark.parametrize("label", ["", "zz", "N1", "7a"])
def test_pencil_case_rejects_unknown_labels_with_key_error(label):
    with pytest.raises(KeyError):
        pencil_case(label)


def test_phi_is_zero_exactly_when_a2_is_9():
    # Phi = 3K - A vanishes on the branch with no fixed part, whose one A^2 is 9;
    # there A.R_0 <= A.Phi = 0
    branch = {(b.ak, a2): b for b in subsystem_split() for a2 in b.a2_options}
    for aprime2 in range(4):
        for h2 in (1, 2, 3):
            for filters in (True, False):
                for c in enumerate_pencil_cases(aprime2, h2, filters):
                    phi_zero = branch[c.ak, c.a2].pa_phi_max is None
                    assert phi_zero == (c.a2 == 9), (aprime2, h2, filters, c.label)
                    assert not phi_zero or c.ar0 == 0


def test_pencil_grid_rows_are_distinct():
    # the orbit and atom catalog never emit one shape twice, on or off the proof's list
    for aprime2 in range(4):
        for h2 in (1, 2, 3):
            for filters in (True, False):
                rows = [(c.a2, c.ar0, c.g, c.d)
                        for c in enumerate_pencil_cases(aprime2, h2, filters)]
                assert len(set(rows)) == len(rows), (aprime2, h2, filters)

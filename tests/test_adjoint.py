import copy
from typing import NamedTuple

import pytest

from godeaux3 import adjoint
from godeaux3.adjoint import (adjoint_table, n_prime_one_is_contradiction,
                              n_range, restriction_dim, verify_ladder_identity,
                              z_lower_bound)
from godeaux3.lattice import ParityError


# -- the shapes of the contracted cycles -------------------------------------
# The catalogue the ladder assumes (ax.minus3 and the two reducible n = 3
# shapes), held here as a reference until the package derives it.

_FORBIDDEN_IN_CYCLES = ("G", "F", "H")


class Cycle(NamedTuple):
    """A formal (-1)-cycle: named components with positive multiplicities."""

    components: tuple[tuple[str, int], ...]

    def is_irreducible(self) -> bool:
        return len(self.components) == 1 and self.components[0][1] == 1


def _kind(name: str) -> str:
    if name.startswith("Z"):
        return "Z"
    if name.startswith("C"):
        return "C"
    return name[0]


def cycle_structure_check(config: list[Cycle],
                          intersections: dict[tuple[str, str], int] | None = None,
                          ) -> tuple[bool, str]:
    """Accept a cycle configuration only in the shapes the ladder allows.

    No G/F/H component may appear in a cycle; no cycle contains two distinct
    E-components; every irreducible cycle C has C.B_0 = C.E' = 1 (read from
    ``intersections`` when given); a reducible cycle forces n >= 3, and for
    n = 3 only the two catalogued shapes occur.
    """
    inter = intersections or {}
    n = len(config)
    for cyc in config:
        for name, _ in cyc.components:
            if _kind(name) in _FORBIDDEN_IN_CYCLES:
                return False, f"component {name} may not lie in a contracted cycle"
        e_names = {name for name, _ in cyc.components if _kind(name) == "E"}
        if len(e_names) >= 2:
            return False, "a cycle may contain at most one E-component"
    for cyc in config:
        if cyc.is_irreducible():
            name = cyc.components[0][0]
            for other, expected in (("B0", 1), ("E", 1)):
                got = inter.get((name, other))
                if got is not None and got != expected:
                    return False, f"{name}.{other} = {got}, expected {expected}"
    reducible = [c for c in config if not c.is_irreducible()]
    if reducible:
        if n < 3:
            return False, "a reducible cycle forces n >= 3"
        if n == 3:
            if not _matches_red_shape(config):
                return False, "n = 3 reducible configuration outside the two allowed shapes"
    return True, ""


def _matches_red_shape(config: list[Cycle]) -> bool:
    irred = [c for c in config if c.is_irreducible()]
    red = [c for c in config if not c.is_irreducible()]
    z_names = sorted({c.components[0][0] for c in irred if _kind(c.components[0][0]) == "Z"})
    # shape 1: Z_1, Z_2 irreducible and Z_3 = Z_1 + Z_2 + E_k
    if len(irred) == 2 and len(red) == 1 and len(z_names) == 2:
        mults = dict(red[0].components)
        e_parts = [nm for nm in mults if _kind(nm) == "E"]
        if (len(e_parts) == 1 and all(mults.get(z, 0) == 1 for z in z_names)
                and mults[e_parts[0]] == 1 and len(mults) == 3):
            return True
    # shape 2: Z_1 irreducible, Z_2 = Z_1 + C, Z_3 = 2 Z_1 + C + E_k
    if len(irred) == 1 and len(red) == 2 and len(z_names) == 1:
        z = z_names[0]
        two = sorted(red, key=lambda c: dict(c.components).get(z, 0))
        m1, m2 = dict(two[0].components), dict(two[1].components)
        c_parts = [nm for nm in m1 if _kind(nm) == "C"]
        e_parts = [nm for nm in m2 if _kind(nm) == "E"]
        if (len(c_parts) == 1 and m1.get(z, 0) == 1 and len(m1) == 2
                and len(e_parts) == 1 and m2.get(z, 0) == 2
                and m2.get(c_parts[0], 0) == 1 and len(m2) == 3):
            return True
    return False


def test_adjoint_table_pencil_case():
    # l = 1 (K_Y^2 = -5), n = 3: the deepest branch numbers
    rows = adjoint_table(0, -5, 1, (3, 0, 1, 0))
    assert rows[0].ni2 == 4 and rows[0].pa == 3 and rows[0].prev_dot == 4
    assert rows[1].ni2 == 3 and rows[1].prev_dot == 4
    assert rows[2].ni2 == 1 and rows[2].pa == 1
    # n = 2 instead: N_1^2 = 3 and N_1.N_2 = 2
    rows = adjoint_table(0, -5, 1, (2, 0))
    assert rows[0].ni2 == 3 and rows[1].prev_dot == 2


def test_adjoint_table_first_case():
    # p_a(N_1) = 4 + K_Y^2 + n = N_1^2 when R_0.K = 1, h_2 = 3
    for ky2 in (-3, -6, -9):
        for n in range(0, 7):
            rows = adjoint_table(1, ky2, 3, (n,))
            assert rows[0].pa == 4 + ky2 + n == rows[0].ni2
            assert rows[0].prev_dot == 2


def _typed_rows(r0k, ky2, h2, n, np_, ns):
    """The hand-typed N_1..N_3 polynomials (N_i^2, N_i.K, p_a, N_{i-1}.N_i)."""
    return [
        (5 - 4 * r0k + ky2 + n + h2, 1 - 2 * r0k + ky2 + n + h2,
         4 - 3 * r0k + ky2 + n + h2, 4 - 2 * r0k),
        (7 - 8 * r0k + 4 * ky2 + 4 * n + 4 * h2 + np_,
         1 - 2 * r0k + 2 * ky2 + 2 * n + 2 * h2 + np_,
         5 - 5 * r0k + 3 * ky2 + 3 * n + 3 * h2 + np_,
         6 - 6 * r0k + 2 * ky2 + 2 * n + 2 * h2),
        (9 - 12 * r0k + 9 * ky2 + 9 * h2 + 9 * n + 4 * np_ + ns,
         1 - 2 * r0k + 3 * ky2 + 3 * h2 + 3 * n + 2 * np_ + ns,
         6 - 7 * r0k + 6 * ky2 + 6 * h2 + 6 * n + 3 * np_ + ns,
         8 - 10 * r0k + 6 * ky2 + 6 * h2 + 6 * n + 2 * np_),
    ]


def test_recurrence_matches_the_typed_polynomials():
    for r0k, h2 in ((0, 1), (0, 4), (1, 3)):
        for ky2 in range(-12, 0):
            for n in range(0, 9):
                for np_, ns in ((0, 0), (1, 1), (5, 2)):
                    rows = adjoint_table(r0k, ky2, h2, (n, np_, ns, 1))
                    got = [(r.ni2, r.nik, r.pa, r.prev_dot) for r in rows]
                    assert got[:3] == _typed_rows(r0k, ky2, h2, n, np_, ns)
                    assert [r.index for r in rows] == [1, 2, 3, 4]


def test_fourth_row_reads_the_last_count():
    # the deepest pencil branch at l = 1: n = 3, n' = 0, n'' = 1, n''' = 1 gives N_4 = 0
    rows = adjoint_table(0, -5, 1, (3, 0, 1, 1))
    assert (rows[3].ni2, rows[3].nik, rows[3].pa) == (0, 0, 1)
    assert rows[3].prev_dot == rows[2].ni2 + rows[2].nik
    shifted = adjoint_table(0, -5, 1, (3, 0, 1, 2))
    assert shifted[3].ni2 == 1 and shifted[:3] == rows[:3]


def test_odd_start_raises_parity_error(monkeypatch):
    monkeypatch.setattr(adjoint, "ladder_top", lambda r0k: (4, 1 - 2 * r0k))
    with pytest.raises(ParityError):
        adjoint_table(0, -5, 1, (3,))


def test_adjoint_table_gives_one_row_per_level():
    for counts in ((), (3,), (2, 5), (2, 2, 1), (3, 0, 1, 1), (3, 0, 1, 1, 0)):
        rows = adjoint_table(0, -5, 1, counts)
        assert [r.index for r in rows] == list(range(1, len(counts) + 1))


@pytest.mark.parametrize("counts", [(-1,), (3, 0, 0, -1)], ids=["n", "nthird"])
def test_adjoint_table_rejects_a_negative_count(counts):
    with pytest.raises(ValueError, match="nonnegative"):
        adjoint_table(0, -5, 1, counts)


def test_z_lower_bound():
    assert z_lower_bound(0, -2, 1) == -1     # vacuous against n >= 0
    assert z_lower_bound(0, 0, 1) == -4
    assert z_lower_bound(1, -3, 3) == 5
    assert z_lower_bound(1, 1 - 2 * 1, 3) == 2
    assert all(type(z_lower_bound(0, -2 * ell, 1)) is int for ell in range(4))


@pytest.mark.parametrize("r0k, r0sq, h2", [(0, 0, 0), (0, -1, 1), (1, 0, 3), (0, -2, 2)])
def test_z_lower_bound_rejects_a_bound_that_is_not_an_integer(r0k, r0sq, h2):
    # 6 times the bound is 35 R_0.K - 9 R_0^2 - 20 - 4 h_2; it is never rounded
    with pytest.raises(ValueError, match="not an integer"):
        z_lower_bound(r0k, r0sq, h2)


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


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_forced_counts_match_the_typed_rows(ell):
    ky2, h2 = -2 - 3 * ell, 1
    n = 3 * ell - 2
    assert adjoint.ladder_counts("s.3l-2", ell) == (n, -(7 + 4 * ky2 + 4 * n + 4 * h2))
    n = 3 * ell - 1
    assert adjoint.ladder_counts("s.3l-1", ell) == (
        n, 2, -(9 + 9 * ky2 + 9 * h2 + 9 * n + 4 * 2))
    for ell_deep in (ell, 0):
        ky2, n = -2 - 3 * ell_deep, 3 * ell_deep
        n3sq = 9 + 9 * ky2 + 9 * h2 + 9 * n + 1
        n3k = 1 + 3 * ky2 + 3 * h2 + 3 * n + 1
        assert adjoint.ladder_counts("s.3l", ell_deep) == (
            n, 0, 1, -(n3sq + ky2 + 2 * n3k + 1 + n + 0 + 1))


def test_a_level_that_disagrees_with_the_table_fails_the_ladder(monkeypatch):
    assert verify_ladder_identity("s.3l", ell=1).ok
    table = adjoint.adjoint_table

    def shifted(*args):
        rows = table(*args)
        return [rows[0]._replace(ni2=rows[0].ni2 + 1), *rows[1:]]

    monkeypatch.setattr(adjoint, "adjoint_table", shifted)
    report = verify_ladder_identity("s.3l", ell=1)
    assert not report.ok and any("vs table" in f for f in report.failures)


# The cycle names beyond the Z_i that the ladder once typed per branch, and the
# eight-point levels (n, the level before the last, the last cycle) typed beside
# the option tables: references for the one naming rule.
EXTRA = {("s.3l", 1): ["Z''", "Z'''"], ("s.3l", 0): ["Z''", "Z'''"],
         ("s.3l-1", 1): ["Z'1", "Z'2", "Z''"],
         ("s.3l-2", 1): ["Z'1", "Z'2", "Z'3", "Z'4", "Z'5"]}
LEVELS = {"s.3l": (3, ("Z''",), "Z'''"), "s.3l-1": (2, ("Z'1", "Z'2"), "Z''")}


@pytest.mark.parametrize("branch,ell", sorted(EXTRA))
def test_cycle_names_reproduce_the_typed_lists(branch, ell):
    counts = adjoint.ladder_counts(branch, ell)
    names = adjoint.cycle_names(counts)
    assert names[0] == [f"Z{i}" for i in range(1, counts[0] + 1)]
    assert [name for level in names[1:] for name in level] == EXTRA[branch, ell]


@pytest.mark.parametrize("branch", sorted(LEVELS))
def test_cycle_names_reproduce_the_typed_eight_point_levels(branch):
    counts = adjoint.ladder_counts(branch, 1)
    *_, before, last = adjoint.cycle_names(counts)
    assert (counts[0], tuple(before), *last) == LEVELS[branch]


def _parent_report(branch, ell):
    """(ok, failures, forced) as the ladder reported them with typed names."""
    n = 3 * ell + {"s.3l": 0, "s.3l-1": -1, "s.3l-2": -2}[branch]
    if n < 0:
        return False, [f"n = {n} < 0 is not realizable"], {}
    forced = {"s.3l": {"n'": 0, "n'''": 1}, "s.3l-1": {"n'": 2, "n''": 1},
              "s.3l-2": {"n'": 5}}[branch]
    return True, [], forced


@pytest.mark.parametrize("branch", ["s.3l", "s.3l-1", "s.3l-2"])
@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_reports_match_the_typed_names(branch, ell):
    report = verify_ladder_identity(branch, ell)
    got = (report.ok, report.failures, report.forced)
    assert got == _parent_report(branch, ell)
    assert list(report.forced.items()) == list(_parent_report(branch, ell)[2].items())
    if report.ok:  # the depth the ruled nodes read: its levels but the last
        assert len(report.counts) - 1 == {"s.3l": 3, "s.3l-1": 2, "s.3l-2": 1}[branch]


@pytest.mark.parametrize("branch,path,value,failure", [
    ("s.3l-1", ("given",), (3,), "n'' = -3 < 0 is not realizable"),
    ("s.3l-1", ("given",), (1,), "(N^2, N.K) = (15, -1) != (3, 1)"),
    ("s.3l", ("given",), (1, 1), "n''' = -8 < 0 is not realizable"),
    ("s.3l", ("offset",), -1, "G' and 20 cycles need more than the model's 14 points"),
    ("s.3l", ("rows", "N2", "Z"), 3, "N2: ladder row fails as a lattice identity"),
    ("s.3l-1", ("rows", "N", "G"), 4, "(N^2, N.K) = (2, 0) != (3, 1)"),
    ("s.3l-1", ("rows", "N1", "Z'''"), 1, "N1: Z''' is no level of the ladder"),
])
def test_perturbed_ladders_fail_without_raising(monkeypatch, branch, path, value, failure):
    data = copy.deepcopy(adjoint._BRANCH_DATA)
    target = data[branch]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    monkeypatch.setattr(adjoint, "_BRANCH_DATA", data)
    report = verify_ladder_identity(branch, ell=1)
    assert not report.ok
    assert failure in report.failures

import ast
from pathlib import Path

import pytest

import godeaux3
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


def test_main_cases_match_the_fixture_by_id():
    from godeaux3.prooftree import EXPECTED

    assert list(cover.MAIN_CASES) == ["i", "ii", "iii"]
    assert {cid: [c.r0k, c.h2] for cid, c in cover.MAIN_CASES.items()} \
        == dict(zip(["i", "ii", "iii"], EXPECTED["main_cases"]))
    assert cover.MAIN_CASES["i"].datum(1, -1) == RamificationData(1, 1, 3, -1)
    assert cover.MAIN_CASES["iii"].datum(2) == RamificationData(0, 2, 1)


# the calls that take a main case's invariants: the positions and names of R_0.K_S and h_2
_CASE_ARGS = {"RamificationData": ((0, "r0k"), (2, "h2")),
              "adjoint_table": ((0, "r0k"), (2, "h2")),
              "ladder_top": ((0, "r0k"),)}
_CASE_NAMES = ("r0k", "h2")  # the attributes and parameters that hold them
# the integer constants the layers outside cover type, none of them a main case's
# R_0.K_S or h_2, each with what it is
INTEGER_CONSTANTS = {
    ("fibration", "CYCLE_SQ"): "the square of a contracted (-1)-cycle",
    ("pencil", "EXC_SELF_INT"): "the square of a fixed (-1)-curve",
    ("plane", "DEL_PEZZO_POINTS"): "the points blown up for a Del Pezzo model",
    ("ruled", "RULED_POINTS"): "the points blown up on F_a in the ruled branches",
}


def _integer_expression(node, constants) -> bool:
    """An expression of integer literals and the names in ``constants`` only."""
    return all(isinstance(n, (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop,
                              ast.expr_context))
               or isinstance(n, ast.Constant) and type(n.value) is int
               or isinstance(n, ast.Name) and n.id in constants for n in ast.walk(node))


def _typed_sites(node, names) -> list[int]:
    """The lines at which ``node`` types a main case's R_0.K_S or h_2 as an integer
    expression: as an argument of ``_CASE_ARGS``, against an ``.r0k`` or ``.h2`` in a
    comparison, or as the default of an ``r0k`` or ``h2`` parameter."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        typed = [arg for pos, kw in _CASE_ARGS.get(name, ())
                 for arg in [*node.args[pos:pos + 1],
                             *(k.value for k in node.keywords if k.arg == kw)]
                 if _integer_expression(arg, names)]
        return [node.lineno] if typed else []
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        read = any(isinstance(side, ast.Attribute) and side.attr in _CASE_NAMES for side in sides)
        return [node.lineno] if read and any(_integer_expression(s, names) for s in sides) else []
    if isinstance(node, ast.arguments):
        params = [*node.posonlyargs, *node.args]
        defaults = [*zip(params[len(params) - len(node.defaults):], node.defaults),
                    *zip(node.kwonlyargs, node.kw_defaults)]  # None: no default
        return [arg.lineno for arg, default in defaults if arg.arg in _CASE_NAMES
                and default is not None and _integer_expression(default, names)]
    return []


def _typed_main_case_sites(package: Path):
    """The integer constants of each module but cover, by (module, name), and the sites
    of ``_typed_sites`` there, by (module, line)."""
    constants, sites = set(), []
    for path in sorted(package.glob("*.py")):
        if path.stem == "cover":
            continue
        tree = ast.parse(path.read_text())
        names = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and _integer_expression(stmt.value, names):
                names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        constants |= {(path.stem, name) for name in names}
        sites += [(path.stem, line) for node in ast.walk(tree)
                  for line in _typed_sites(node, names)]
    return constants, sites


def test_no_layer_types_a_main_case():
    """R_0.K_S and h_2 of a main case are read from ``cover.MAIN_CASES``: no layer outside
    cover passes them as literals, picks a case by comparing them with literals or types
    them as a default, and no module constant there types an integer but the listed ones."""
    constants, sites = _typed_main_case_sites(Path(godeaux3.__file__).parent)
    assert sites == []
    assert constants == set(INTEGER_CONSTANTS)


def test_the_main_case_scan_sees_each_way_to_type_a_case(tmp_path):
    (tmp_path / "cover.py").write_text("r.h2 == 1\n")  # the one source, not scanned
    (tmp_path / "layer.py").write_text(
        "H2 = 4\n"
        "rows = adjoint_table(0, ky2, case.h2, (0,))\n"
        "top = ladder_top(1)\n"
        "pencil = [r for r in grid if r.h2 == H2 or 1 != r.r0k]\n"
        "def scan(aprime2, h2=1, *, r0k=-1 + 1, ell=0):\n"
        "    return ladder_top(case.r0k), r.ell == 1, r.h2 <= h2\n")
    constants, sites = _typed_main_case_sites(tmp_path)
    assert constants == {("layer", "H2")}
    assert sorted(sites) == [("layer", 2), ("layer", 3), ("layer", 4), ("layer", 4),
                             ("layer", 5), ("layer", 5)]

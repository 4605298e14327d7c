import ast
import copy
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import godeaux3
from godeaux3 import adjoint, delpezzo, fibration, pencil, plane, prooftree, report as report_mod
from godeaux3.cli import main
from godeaux3.prooftree import (CONTRADICTION, EXPECTED, FAILED, VERIFIED, Outcome, ProofNode,
                                _registry, build_nodes)
from godeaux3.report import UnknownSelector, explain, fixtures_check, run

COVERAGE_CLOSERS = ("t.no0", "t.no1rul", "t.no1", "t.3l-1", "t.no3lDP1", "t.no3lDP")


@pytest.fixture(scope="module")
def full_report():
    return run("all")


def test_full_run_verifies(full_report):
    assert full_report.verdict == "verified"
    assert not full_report.failed_nodes()


def test_node_census(full_report):
    assert len(full_report.order) >= 40
    counts = full_report.counts()
    assert counts["axiom-assumed"] == len(EXPECTED["axioms"])
    assert counts.get("failed", 0) == 0


def test_axiom_ledger_is_exact(full_report):
    ledger = [ax["id"] for ax in full_report.axiom_ledger()]
    assert sorted(ledger) == list(EXPECTED["axioms"])


def test_dependency_graph_acyclic():
    registry = build_nodes()
    position = {nid: i for i, nid in enumerate(registry)}
    for nid, node in registry.items():
        for dep in node.deps:
            assert position[dep] < position[nid]


def test_the_registry_is_sorted_once_per_run():
    registry = build_nodes()
    assert run("all").order == list(registry)
    closure, more = set(), {"t.ii"}
    while more:  # the dependency closure, grown to a fixed point
        closure |= more
        more = {d for nid in more for d in registry[nid].deps} - closure
    assert run("t.ii").order == [nid for nid in registry if nid in closure]
    assert len(_calls_in_full_run(_registry)) == 1  # in build_nodes


def _node(nid, *deps):
    return ProofNode(nid, "formula-check", nid, deps, (), lambda _: Outcome(VERIFIED))


def test_the_registry_refuses_a_node_declared_before_its_dependency():
    assert list(_registry([_node("a"), _node("b", "a")])) == ["a", "b"]
    with pytest.raises(ValueError, match="^b depends on a, which is not declared before it$"):
        _registry([_node("b", "a"), _node("a")])
    with pytest.raises(ValueError, match="^a depends on a, "):
        _registry([_node("a", "a")])


def test_the_registry_refuses_an_unknown_dependency():
    with pytest.raises(ValueError, match="^b depends on zz, "):
        _registry([_node("a"), _node("b", "a", "zz")])


def test_ledger_of_an_excluded_axiom_keeps_its_source():
    report = run("all", excluded=("ax.split",))
    assert report.results["ax.split"].status == "failed"
    ledger = {ax["id"]: ax for ax in report.axiom_ledger()}
    assert ledger["ax.split"]["source"] == EXPECTED["axioms"]["ax.split"][1] \
        == "theory of abelian triple covers"


def test_removing_any_axiom_fails_the_root():
    for ax_id in EXPECTED["axioms"]:
        report = run("all", excluded=(ax_id,))
        assert report.verdict == "failed", ax_id
        assert "t.final" in report.failed_nodes()


def test_reports_byte_identical():
    a = json.dumps(run("all").to_json(), sort_keys=True)
    b = json.dumps(run("all").to_json(), sort_keys=True)
    assert a == b


def test_text_report_deterministic():
    assert run("all").to_text() == run("all").to_text()


# A change to the canonical report must update these digests and list the
# changed rows in CHANGES.md.
CANONICAL_TEXT_SHA256 = "4046c2861bba326aca3e25d0d0175f70aa979459574e78d98a75e3b6be7440ef"
CANONICAL_JSON_SHA256 = "15cf12e60d32d0efefa0befb5a25c3a9a387fc29388adf95a46592fc9cbb2f90"


def test_canonical_report_digests():
    report = run("all")
    text = report.to_text().encode()
    blob = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == CANONICAL_TEXT_SHA256
    assert hashlib.sha256(blob).hexdigest() == CANONICAL_JSON_SHA256


# The sides of each elimination, which neither digest covers (``explain`` prints them).
NODE_SIDES_SHA256 = "b73671759bdda38802d9b50fcfd540ee6340291e4a77fcc89c3bc3035a08bdce"


def test_node_sides_digest(full_report):
    sides = [[nid, full_report.results[nid].sides] for nid in full_report.order]
    assert sum(1 for _, s in sides if s) == 22
    assert hashlib.sha256(json.dumps(sides).encode()).hexdigest() == NODE_SIDES_SHA256


def test_subtree_selectors():
    report = run("t.ii")
    assert report.verdict == "verified"
    assert "t.ii" in report.order and "t.final" not in report.order
    report = run("p.list2")
    assert report.verdict == "verified"
    assert report.results["p.list2"].status == "verified"


def test_case_id_selectors():
    report = run("1e")
    assert report.verdict == "verified"
    assert "p.1e" in report.order
    with pytest.raises(UnknownSelector):
        run("zz")


def test_json_schema(full_report):
    blob = full_report.to_json()
    assert blob["schema_version"] == "1"
    assert blob["verdict"] == "verified"
    assert {n["id"] for n in blob["nodes"]} == set(full_report.order)
    assert all(set(n) == {"id", "kind", "title", "status", "depends_on", "trace"}
               for n in blob["nodes"])


def test_explain():
    text = explain("p.no2")
    assert "13" in text and "r >= 3" in text
    text = explain("e.fixed")
    assert "h1+2h2" in text.replace(" ", "")
    text = explain("p.equiv0")
    assert "reachable" in text
    with pytest.raises(UnknownSelector):
        explain("nope")


def test_fixtures_check():
    ok, messages = fixtures_check()
    assert ok
    assert messages == [f"{nid}: verified" for nid in (
        "p.list0", "p.list1", "p.list2", "r.N", "e.sys", "sixtuples", "tables.printed",
        "cases.main", "p.0", "p.1", "p.3", "t.iii", "t.iii2")] + [
        f"{nid}: contradiction-as-expected" for nid in ("p.3l-12", "p.3l-13")]


def test_fixtures_check_lists_every_node_that_reads_a_fixture(monkeypatch):
    """The nodes that read a table of either fixture file while they run are the ones
    listed; the axioms of expected.json are statements, which no node compares."""
    readers, running = set(), []

    class Recorded(dict):
        def __getitem__(self, key):
            if key != "axioms" and running:
                readers.add(running[-1])
            return super().__getitem__(key)

    node_run = ProofNode.run

    def recording_run(node, ins):
        running.append(node.id)
        try:
            return node_run(node, ins)
        finally:
            running.pop()

    monkeypatch.setattr(prooftree, "EXPECTED", Recorded(EXPECTED._load()))
    monkeypatch.setattr(delpezzo, "_DATA", Recorded(delpezzo._DATA._load()))
    monkeypatch.setattr(ProofNode, "run", recording_run)
    assert run("all").verdict == "verified"
    assert readers == set(report_mod.FIXTURE_NODES)


def test_fixtures_check_fails_with_a_fixture_node(monkeypatch, capsys):
    registry = build_nodes()
    registry["e.sys"] = registry["e.sys"]._replace(fn=lambda _: Outcome("failed"))
    monkeypatch.setattr(report_mod, "build_nodes", lambda: registry)
    ok, messages = fixtures_check()
    assert not ok and "e.sys: failed" in messages
    assert main(["fixtures", "check"]) == 1
    assert "fixtures FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("nid", report_mod.FIXTURE_NODES)
def test_fixtures_check_fails_with_any_fixture_node(monkeypatch, nid):
    registry = build_nodes()
    registry[nid] = registry[nid]._replace(fn=lambda _: Outcome("failed"))
    monkeypatch.setattr(report_mod, "build_nodes", lambda: registry)
    ok, messages = fixtures_check()
    assert not ok and f"{nid}: failed" in messages


def test_cli_run_and_exit_codes(tmp_path, capsys):
    assert main(["run", "--node", "t.ii"]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["run", "--format", "json", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["verdict"] == "verified"
    assert main(["run", "--node", "bogus"]) == 2
    assert main(["explain", "t.ii"]) == 0
    capsys.readouterr()
    assert main(["fixtures", "check"]) == 0
    capsys.readouterr()


def test_cli_run_timing_appends_one_time_per_node(capsys):
    order = run("all").order
    assert len(order) == 81
    assert main(["run", "--timing"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    start = lines.index("timing (s):\n")
    block = [line.rsplit(":", 1)[0].strip() for line in lines[start + 1:-1]]
    assert sorted(block) == sorted(order) and len(set(block)) == len(block)
    canonical = "".join(lines[:start] + lines[-1:]).encode()
    assert hashlib.sha256(canonical).hexdigest() == CANONICAL_TEXT_SHA256
    assert main(["run", "--timing", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert sorted(blob.pop("timing")) == sorted(order)
    canonical = json.dumps(blob, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == CANONICAL_JSON_SHA256


def test_cli_rejects_jobs(capsys):
    assert main(["run", "--jobs", "4"]) == 2
    capsys.readouterr()


def test_cli_run_of_a_failing_tree_exits_1(monkeypatch, capsys):
    registry = build_nodes()
    registry["t.ii"] = registry["t.ii"]._replace(fn=lambda _: Outcome("failed"))
    monkeypatch.setattr(report_mod, "build_nodes", lambda: registry)
    assert main(["run"]) == 1
    assert "verdict: failed" in capsys.readouterr().out


def test_cli_usage_and_io_exit_codes(tmp_path, capsys):
    assert main(["explain", "bogus"]) == 2
    assert "unknown node id: " in capsys.readouterr().err
    missing = tmp_path / "missing" / "report.txt"
    assert main(["run", "--out", str(missing)]) == 2
    assert "cannot write report" in capsys.readouterr().err and not missing.exists()
    assert main(["--help"]) == 0
    assert "usage: verify" in capsys.readouterr().out
    assert main([]) == 2
    assert "required" in capsys.readouterr().err


def _run_with(monkeypatch, change):
    """Run the whole tree after ``change`` edits a fresh node table."""
    registry = build_nodes()
    change(registry)
    monkeypatch.setattr(report_mod, "build_nodes", lambda: registry)
    return run("all")


@pytest.mark.parametrize("branch, counts, nid", [
    ("deepest", (3, 0, 2, 1), "p.no3lirr"),  # two cycles before the last level
    ("middle", (3, 0, 1, 1), "l.nob"),  # the deepest ladder's counts: no odd split of 5
])
def test_the_e_prime_eliminations_read_the_counts_b0_tables_passes_on(
        monkeypatch, full_report, branch, counts, nid):
    value = full_report.results["b0.tables"].value
    assert {b: c for b, (c, _) in value.items()} == {"deepest": (3, 0, 1, 1),
                                                     "middle": (2, 2, 1)}

    def change(registry):
        node = registry["b0.tables"]

        def fn(ins):
            out = node.fn(ins)
            out.value[branch] = (counts, out.value[branch][1])
            return out

        registry["b0.tables"] = node._replace(fn=fn)

    report = _run_with(monkeypatch, change)
    assert report.results["b0.tables"].status == VERIFIED
    assert report.results[nid].status == "failed"


def test_t_iii_hands_on_the_records_the_euler_passes_judged(full_report):
    value = full_report.results["t.iii"].value
    want = {int(k): tuple(v) for k, v in EXPECTED["survivors_after_euler"].items()}
    assert {ell: tuple(cases) for ell, cases in value.items()} == want
    assert all(case == pencil.pencil_case(lab) for cases in value.values()
               for lab, case in cases.items())


@pytest.mark.parametrize("label, changes, nid", [
    ("0a", {"d": ()}, "p.l0"),  # D meets no E'-curve
    ("0d", {"ar0": 2}, "p.no0d"),  # A'.B_0 = A.R_0 = 2
    ("1e", {"apk": 0}, "p.1e"),  # A'.K_Y = 0, so A'.N_1 = 3
    ("1e", {"ak": 4}, "p.1e"),  # A'.N = A.K_S = 4, so A'.N_1 = 3
])
def test_the_lattice_eliminations_read_the_records_of_t_iii(monkeypatch, label, changes, nid):
    def change(registry):
        node = registry["t.iii"]

        def fn(ins):
            out = node.fn(ins)
            for cases in out.value.values():
                if label in cases:
                    cases[label] = dataclasses.replace(cases[label], **changes)
            return out

        registry["t.iii"] = node._replace(fn=fn)

    report = _run_with(monkeypatch, change)
    assert report.results["t.iii"].status == VERIFIED
    assert report.results[nid].status == "failed"
    assert not any("exception" in line for line in report.results[nid].trace)


def test_e_g_checks_the_a_k_of_every_record(monkeypatch):
    def change(registry):
        node = registry["p.list1"]

        def fn(ins):
            out = node.fn(ins)
            out.value = [dataclasses.replace(c, ak=5 - c.ak) for c in out.value]  # 2 <-> 3
            return out

        registry["p.list1"] = node._replace(fn=fn)

    report = _run_with(monkeypatch, change)
    assert report.results["p.list1"].status == VERIFIED
    assert report.results["e.g"].status == "failed"


@pytest.mark.parametrize("nid", COVERAGE_CLOSERS + ("p.1e", "p.no0d", "p.l0"))
def test_emptied_closes_fails_coverage_and_root(monkeypatch, nid):
    def empty(registry):
        registry[nid] = registry[nid]._replace(closes=())

    report = _run_with(monkeypatch, empty)
    assert report.results[nid].status != "failed"
    assert report.results["coverage"].status == "failed"
    assert report.results["t.final"].status == "failed"


@pytest.mark.parametrize("nid", COVERAGE_CLOSERS)
def test_closer_dropped_from_coverage_fails_root(monkeypatch, nid):
    def drop(registry):
        cov = registry["coverage"]
        registry["coverage"] = cov._replace(deps=tuple(d for d in cov.deps if d != nid))

    report = _run_with(monkeypatch, drop)
    assert report.results["coverage"].status == "failed"
    assert any("closed by no node" in line for line in report.results["coverage"].trace)
    assert report.results["t.final"].status == "failed"


def test_root_checks_the_status_of_each_main_case(monkeypatch):
    def soften(registry):
        registry["t.i"] = registry["t.i"]._replace(fn=lambda _: Outcome(VERIFIED))

    report = _run_with(monkeypatch, soften)
    assert report.results["t.i"].status == "verified"
    assert report.results["t.final"].status == "failed"


def test_root_reads_the_main_cases_and_coverage_only():
    registry = build_nodes()
    assert len(registry) == 81
    assert set(registry["t.final"].deps) == {"t.i", "t.ii", "coverage"}


def test_every_node_feeds_the_root():
    assert set(run("t.final").order) == set(build_nodes())


def test_no_node_reads_an_edge_to_an_axiom(monkeypatch):
    """An axiom is a premise, which no node reads; the edge probe below shows that
    every edge to a computed node is read, and decides."""
    read = set()
    node_run = ProofNode.run

    class Recorded:
        """An outcome that notes the edge along which a node reads any of its fields."""

        def __init__(self, edge, outcome):
            self._edge, self._outcome = edge, outcome

        def __getattr__(self, name):
            read.add(self._edge)
            return getattr(self._outcome, name)

    def recording_run(node, ins):
        return node_run(node, {d: Recorded((node.id, d), o) for d, o in ins.items()})

    monkeypatch.setattr(ProofNode, "run", recording_run)
    report = run("all")
    assert report.verdict == "verified"
    assert read and all(report.registry[d].kind != "axiom" for _, d in read)


# the computed edges along which no one-step change of the producer's outcome changes
# any status, each with the reason
SILENT_EDGES = {
    ("p.no3lirr", "p.equiv0"): "a margin: the sides are 6 vs 3, and the top degree 9 "
                               "must fall to 7 before the budget 21 - 2d reaches 6",
}


# the searches whose windows stay typed: the typed stops of their range calls in source
# order (see _typed_windows), and the reason
TYPED_WINDOWS = {
    ("cover", "_R0K"): ((2,), "R_0.K_S >= 0 as K_S is nef, and h^0(N) = 2 + R_0.K_S < 4 as "
                              "the tricanonical map is birational"),
    ("fibration", "eliminate_by_delta"): (("ell_max = 8",), "the Euler pass scans l <= 8; "
                                                            "layer_kernels passes its own "
                                                            "ell_max, and the default goes "
                                                            "with ROADMAP item 2"),
    ("plane", "solve_multiplicity_system"): ((13,), "d_0 <= 12: no Cauchy-Schwarz bound "
                                                    "exists at 9 or 10 points, and layer_kernels "
                                                    "draws it, so it changes with the benchmark"),
    ("prooftree", "_e_fixed"): ((4, 5), "grids of formula checks, not searches"),
    ("ruled", "fa_ladder_checks"): (("RULED_POINTS = 9",), "the ruled model's point count, "
                                                           "one blow-up per point, not a search"),
}


def _typed_windows() -> dict[tuple[str, str], tuple[int | str, ...]]:
    """(module, top-level function or assigned name) -> the typed stops of its range
    calls, in source order: a positive integer literal as its value, and a name as
    ``"name = value"`` when it is a parameter with a positive integer default or an
    integer constant of a module, directly or through another such constant."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(godeaux3.__file__).parent.glob("*.py"))}

    def positive(node, names):
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value > 0:
            return node.value
        return names.get(node.id) if isinstance(node, ast.Name) else None

    constants = {}
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                value = positive(stmt.value, constants)
                if value is not None:
                    constants[stmt.targets[0].id] = value
    windows = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            name = (ast.unparse(stmt.targets[0]) if isinstance(stmt, ast.Assign)
                    else getattr(stmt, "name", "<module>"))
            typed = dict(constants)
            for fn in ast.walk(stmt):
                if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                    params = fn.args.args[len(fn.args.args) - len(fn.args.defaults):]
                    for arg, default in [*zip(params, fn.args.defaults),
                                         *zip(fn.args.kwonlyargs, fn.args.kw_defaults)]:
                        value = None if default is None else positive(default, constants)
                        if value is not None:
                            typed[arg.arg] = value
            calls = sorted((c for c in ast.walk(stmt) if isinstance(c, ast.Call) and c.args
                            and isinstance(c.func, ast.Name) and c.func.id == "range"),
                           key=lambda c: (c.lineno, c.col_offset))
            stops = []
            for call in calls:
                stop = call.args[min(1, len(call.args) - 1)]
                literal = positive(stop, {})
                if literal is not None:
                    stops.append(literal)
                stops += [f"{n.id} = {typed[n.id]}" for n in ast.walk(stop)
                          if isinstance(n, ast.Name) and n.id in typed]
            if stops:
                windows[(module, name)] = tuple(stops)
    return windows


def test_every_literal_window_is_listed():
    """A range whose stop is a positive literal, or names a parameter's positive default
    or a module's integer constant, is a typed window: each is listed with its reason
    and its bound, and no listed window is stale."""
    assert _typed_windows() == {key: stops for key, (stops, _) in TYPED_WINDOWS.items()}


def _variants(value):
    """Each one-step change of ``value``: +-1 on an integer, a dict key included; a
    flipped bool; one element of a list, tuple, set or dict dropped or added; or one of
    these inside an element, a dict value or a record field.  A sequence gains a copy
    of its last element, or None when empty; a set or a dict gains an element or an
    entry one step from one it has."""
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, int):
        yield from (value + 1, value - 1)
    elif isinstance(value, dict):
        items = list(value.items())
        for i in range(len(items)):
            yield dict(items[:i] + items[i + 1:])
        for k, v in items:
            for k2 in _variants(k):
                if k2 not in value:
                    yield {**value, k2: v}  # added
                yield {**{kk: vv for kk, vv in items if kk != k}, k2: v}  # moved
        for k, v in items:
            yield from ({**value, k: v2} for v2 in _variants(v))
    elif isinstance(value, (set, frozenset)):
        yield from (type(value)(value - {x}) for x in value)
        yield from (type(value)(value | {x2}) for x in value for x2 in _variants(x)
                    if x2 not in value)
    elif hasattr(value, "_fields"):
        yield from (value._replace(**{f: v2}) for f in value._fields
                    for v2 in _variants(getattr(value, f)))
    elif isinstance(value, (list, tuple)):
        seq, make = list(value), type(value)
        yield from (make(seq[:i] + seq[i + 1:]) for i in range(len(seq)))
        yield make(seq + (seq[-1:] or [None]))
        yield from (make(seq[:i] + [x2] + seq[i + 1:]) for i, x in enumerate(seq)
                    for x2 in _variants(x))
    elif dataclasses.is_dataclass(value):
        yield from (dataclasses.replace(value, **{f.name: v2})
                    for f in dataclasses.fields(value) for v2 in _variants(getattr(value, f.name)))
    elif hasattr(value, "__slots__"):
        for f in value.__slots__:
            for v2 in _variants(getattr(value, f)):
                changed = copy.copy(value)
                setattr(changed, f, v2)
                yield changed


def _outcome_variants(out):
    """``out`` with verified and contradiction-as-expected swapped, with its closes
    cleared, or with each one-step change of its value."""
    def outcome(status=out.status, value=out.value, closes=out.closes):
        changed = Outcome(status, value, out.sides, list(out.trace))
        changed.closes = closes
        return changed

    swap = {VERIFIED: CONTRADICTION, CONTRADICTION: VERIFIED}
    if out.status in swap:
        yield outcome(status=swap[out.status])
    if out.closes:
        yield outcome(closes=())
    yield from (outcome(value=v) for v in _variants(out.value))


def _changes_a_status(registry, base, edge, outcome):
    """Whether re-running the consumer of ``edge`` with ``outcome`` in place of its
    producer's, then every node downstream of the consumer, as ``report.run`` does,
    changes any status in ``base``; an exception counts as a failed node."""
    consumer, producer = edge
    results, rerun = dict(base), {consumer}
    for nid, node in registry.items():
        if nid != consumer and rerun.isdisjoint(node.deps):
            continue
        ins = {d: results[d] for d in node.deps} | ({producer: outcome} if nid == consumer else {})
        if any(o.status == FAILED for o in ins.values()):
            results[nid] = Outcome(FAILED)
        else:
            try:
                results[nid] = node.run(ins)
            except Exception:  # a crash is a failed node, as in report.run
                results[nid] = Outcome(FAILED)
        if results[nid].status != base[nid].status:
            return True
        rerun.add(nid)
    return False


def test_every_edge_to_a_computed_node_decides_a_status(full_report):
    """Mutation adequacy on the data edges: each computed edge carries some one-step
    change of its producer's outcome that changes a status, or it is a listed margin."""
    registry, base = full_report.registry, full_report.results
    edges = [(nid, d) for nid, node in registry.items() for d in sorted(node.deps)
             if registry[d].kind != "axiom"]
    silent = {edge for edge in edges if not any(
        _changes_a_status(registry, base, edge, out) for out in _outcome_variants(base[edge[1]]))}
    assert len(edges) == 101
    assert silent == set(SILENT_EDGES)


def test_the_probe_finds_an_edge_that_decides_nothing(full_report):
    """The edge p.list2 -> r.R0, which A'^2 = 2's empty list never reads, is silent;
    p.list0 -> r.R0 is not."""
    registry = build_nodes()
    registry["p.list2"] = registry["p.list2"]._replace(deps=(*registry["p.list2"].deps, "r.R0"))
    out = full_report.results["r.R0"]
    assert not any(_changes_a_status(registry, full_report.results, ("p.list2", "r.R0"), o)
                   for o in _outcome_variants(out))
    assert any(_changes_a_status(registry, full_report.results, ("p.list0", "r.R0"), o)
               for o in _outcome_variants(out))


def test_a_shape_with_a_prime_square_two_would_read_a_bound_p_list2_lacks(monkeypatch):
    """A'^2 = 2 emits no shape, so p.list2 does not depend on r.R0; a shape there is
    read against a bound that p.list2 does not have, and p.list2 fails."""
    enumerate_cases = pencil.enumerate_pencil_cases

    def one_shape(aprime2, h2=1, apply_orbit_filters=True):
        if aprime2 == 2:
            return [dataclasses.replace(enumerate_cases(1)[0], aprime2=2)]
        return enumerate_cases(aprime2, h2, apply_orbit_filters)

    monkeypatch.setattr(pencil, "enumerate_pencil_cases", one_shape)
    report = run("all")
    assert report.results["p.list2"].trace == ["exception: KeyError('r.R0')"]
    assert {"p.list2", "t.iii", "t.final"} <= set(report.failed_nodes())
    assert report.results["p.list1"].status == VERIFIED


@pytest.mark.parametrize("square", [fibration.EXC_SQ, fibration.B0_SQ, -15])
def test_a_square_e_fibre_did_not_verify_fails_its_eliminations(monkeypatch, square):
    def narrow(registry):
        fibre = registry["e.fibre"]

        def fn(ins):
            out = fibre.fn(ins)
            out.value = {sq: c for sq, c in out.value.items() if sq != square}
            return out

        registry["e.fibre"] = fibre._replace(fn=fn)

    report = _run_with(monkeypatch, narrow)
    assert report.results["e.fibre"].status == VERIFIED
    failed = set(report.failed_nodes())
    assert {"p.noZ", "p.noN", "p.noN1"} <= failed
    assert ({"p.0", "p.1", "p.3", "t.ii", "t.no1rul"} <= failed) == (square != -15)
    assert "t.final" in failed


def test_explain_lists_dependency_statuses():
    text = explain("t.final")
    assert "status: verified" in text
    assert "  t.i: contradiction-as-expected" in text
    assert "  t.ii: contradiction-as-expected" in text
    assert "  coverage: verified" in text
    assert "sides: 13 vs 12" in explain("p.no2")
    with pytest.raises(UnknownSelector):
        explain("1e")  # a case id, not a node


def test_each_node_and_the_euler_survivors_run_once(monkeypatch):
    calls = Counter()
    node_run, survivors = ProofNode.run, fibration.t_iii_survivors

    def counted_run(node, ins):
        calls[node.id] += 1
        return node_run(node, ins)

    def counted_survivors(*args):
        calls["t_iii_survivors"] += 1
        return survivors(*args)

    monkeypatch.setattr(ProofNode, "run", counted_run)
    monkeypatch.setattr(fibration, "t_iii_survivors", counted_survivors)
    report = run("all")
    assert report.verdict == "verified"
    assert set(calls) == set(report.order) | {"t_iii_survivors"}
    assert set(calls.values()) == {1}


def test_each_pencil_list_is_enumerated_once(monkeypatch):
    # the four lists and their four unfiltered supersets; p.1 reads (1e) from p.list1
    calls = Counter()
    enumerate_cases = pencil.enumerate_pencil_cases

    def counted(aprime2, h2=1, apply_orbit_filters=True):
        calls[aprime2, apply_orbit_filters] += 1
        return enumerate_cases(aprime2, h2, apply_orbit_filters)

    monkeypatch.setattr(pencil, "enumerate_pencil_cases", counted)
    assert run("all").verdict == "verified"
    assert calls == Counter({(a, f): 1 for a in range(4) for f in (True, False)})


def test_case_selectors_follow_closes():
    registry = build_nodes()
    assert {n for n, node in registry.items() if "1e" in node.closes} == {"p.1e"}
    assert {n for n, node in registry.items() if "0g" in node.closes} == {"coverage"}
    assert "coverage" in run("iii").order
    assert set(run("0a").order) >= {"p.0", "p.l0"}


def test_declared_labels_are_the_ones_closed(full_report):
    """An Euler pass closes exactly the labels it leaves with no value of l, and
    coverage exactly the labels of the final survivor table."""
    registry, results = full_report.registry, full_report.results
    for nid in ("p.0", "p.1", "p.3"):
        dead = {lab for lab, e in results[nid].value.items() if not e.survivors}
        assert set(registry[nid].closes) == dead
    final = {lab for labs in results["t.iii2"].value.values() for lab in labs}
    assert set(registry["coverage"].closes) == {"iii"} | final


def test_coverage_needs_closers_with_contradiction_status(monkeypatch):
    def soften(registry):
        registry["t.no1rul"] = registry["t.no1rul"]._replace(fn=lambda _: Outcome(VERIFIED))

    report = _run_with(monkeypatch, soften)
    assert report.results["t.no1rul"].closes == ((1, 0, "ruled"),)
    assert report.results["coverage"].status == "failed"
    assert report.results["t.final"].status == "failed"


def _calls_in_full_run(*fns):
    """Run the whole tree and record the arguments of every call to ``fns``,
    however the calling module bound them."""
    names = {fn.__code__: fn.__name__ for fn in fns}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            args = frame.f_code.co_varnames[:frame.f_code.co_argcount]
            calls.append((names[frame.f_code], tuple(frame.f_locals[a] for a in args)))

    sys.setprofile(profile)
    try:
        report = run("all")
    finally:
        sys.setprofile(None)
    assert report.verdict == "verified"
    return calls


def test_each_ladder_is_verified_once_per_run():
    calls = _calls_in_full_run(adjoint.verify_ladder_identity, adjoint.adjoint_table,
                               plane.solve_multiplicity_system)
    by_name = Counter(name for name, _ in calls)
    assert by_name["verify_ladder_identity"] == 4
    assert by_name["adjoint_table"] <= 20
    solves = [args[:3] for name, args in calls if name == "solve_multiplicity_system"]
    assert solves.count((2, 2, 8)) == 1


def _callers_during_run(fn) -> set[str]:
    """``module.function`` of every frame on the stack of a call to ``fn`` in a full run."""
    code = fn.__code__
    callers = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            caller = frame.f_back
            while caller is not None:
                callers.add(f"{caller.f_globals['__name__']}.{caller.f_code.co_name}")
                caller = caller.f_back

    sys.setprofile(profile)
    try:
        report = run("all")
    finally:
        sys.setprofile(None)
    assert report.verdict == "verified"
    return callers


def test_every_multiplicity_search_goes_through_one_generator():
    callers = _callers_during_run(plane.multiplicity_vectors)
    assert {"godeaux3.ruled._t_no1_plane_scan", "godeaux3.ruled.homaloidal_eliminate",
            "godeaux3.prooftree._e_sys"} <= callers


def test_every_cremona_move_goes_through_one_transform():
    callers = _callers_during_run(plane._transform_curve)
    assert {"godeaux3.plane.cremona_orbit_connect", "godeaux3.plane._moves",
            "godeaux3.delpezzo.lines_to_contracted_move",
            "godeaux3.delpezzo.elim_p_3l12", "godeaux3.delpezzo.elim_p_3l13"} <= callers


def test_fibration_reads_a_k_off_the_records():
    # A.K_S comes from the branch each record was enumerated in, which e.g checks
    callers = _callers_during_run(pencil.subsystem_split)
    assert {"godeaux3.prooftree._le_sub", "godeaux3.pencil._candidate_cases"} <= callers
    assert not any(c.startswith("godeaux3.fibration.") for c in callers)


def test_p_comp_catches_a_shifted_table(monkeypatch):
    table = adjoint.adjoint_table

    def shifted(*args):
        rows = table(*args)
        return [rows[0]._replace(ni2=rows[0].ni2 + 1), *rows[1:]]

    monkeypatch.setattr(adjoint, "adjoint_table", shifted)
    report = run("p.comp")
    assert report.results["p.comp"].status == "failed"


# every premise a node declares, by node id and position
PREMISES = [(nid, i) for nid, node in build_nodes().items() for i in range(len(node.premises))]


def test_twenty_three_nodes_declare_thirty_premises():
    registry = build_nodes()
    assert len(PREMISES) == 30
    assert len({nid for nid, _ in PREMISES}) == 23
    assert all(registry[nid].kind != "axiom" for nid, _ in PREMISES)


@pytest.mark.parametrize("nid, index", PREMISES)
def test_a_premise_that_fails_fails_its_node(monkeypatch, nid, index):
    registry = build_nodes()
    node = registry[nid]
    premise, texts = node.premises[index], []

    def forced(ins):
        texts.append(premise(ins)[1])
        return False, texts[-1]

    premises = list(node.premises)
    premises[index] = forced
    registry[nid] = node._replace(premises=tuple(premises))
    monkeypatch.setattr(report_mod, "build_nodes", lambda: registry)
    result = run(nid).results[nid]
    assert result.status == "failed"
    assert f"premise fails: {texts[0]}" in result.trace
    assert result.closes == ()


def test_premise_lines_are_written_only_by_the_run_of_their_node(monkeypatch, full_report):
    """Without its premises each node's trace is its full trace less the premise lines,
    so no ``fn`` writes a premise line itself."""
    def strip(registry):
        for nid, node in registry.items():
            registry[nid] = node._replace(premises=())

    stripped = _run_with(monkeypatch, strip)
    for nid, node in full_report.registry.items():
        full = full_report.results[nid].trace
        assert stripped.results[nid].trace == full[:len(full) - len(node.premises)], nid
        assert stripped.results[nid].status == full_report.results[nid].status, nid


def test_p_1_writes_its_premise_line_after_its_1e_lines(full_report):
    trace = full_report.results["p.1"].trace
    assert trace[-1] == "e.fibre verified the trapped squares [-6, -3]"
    assert trace[-2].startswith("(1e) with l=")


@pytest.mark.parametrize("closer", ["p.1e", "p.no0d", "p.l0"])
def test_t_iii2_counts_only_closers_that_hold_as_a_contradiction(monkeypatch, closer):
    def soften(registry):
        node = registry[closer]

        def fn(ins):
            out = node.fn(ins)
            out.status = VERIFIED
            return out

        registry[closer] = node._replace(fn=fn)

    report = _run_with(monkeypatch, soften)
    assert report.results[closer].status == VERIFIED
    assert report.results[closer].closes == report.registry[closer].closes
    assert report.results["t.iii2"].status == "failed"
    assert report.results["t.final"].status == "failed"


def test_the_fixtures_are_read_by_path():
    # without site, which imports importlib.resources on its own in some installs
    code = "import sys, godeaux3.cli; print('importlib.resources' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(godeaux3.__file__)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "False\n"


# the key of each fixture that verify run reads first
FIRST_KEY = {"expected.json": "axioms", "config_tables.json": "tables_8pt"}


@pytest.mark.parametrize("name", ["expected.json", "config_tables.json"])
@pytest.mark.parametrize("content", ["{not json", "[]", None, "{}",
                                     pytest.param(FIRST_KEY, id="first-key-dropped")])
def test_a_malformed_or_missing_fixture_exits_2_with_one_line(tmp_path, name, content):
    """verify run on a copy of the package whose fixture is not JSON, not a JSON object,
    missing, or lacks a key the run reads."""
    package = tmp_path / "godeaux3"
    shutil.copytree(os.path.dirname(godeaux3.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    fixture = package / "fixtures" / name
    if content is None:
        fixture.unlink()
    elif content is FIRST_KEY:
        data = json.loads(fixture.read_text())
        del data[FIRST_KEY[name]]
        fixture.write_text(json.dumps(data))
    else:
        fixture.write_text(content)
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-S", "-m", "godeaux3.cli", "run"], capture_output=True,
                          text=True, env=env)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"bad fixture: {fixture}: ") and done.stderr.count("\n") == 1
    if content is FIRST_KEY:
        assert done.stderr == f"bad fixture: {fixture}: no key {FIRST_KEY[name]!r}\n"


@pytest.mark.parametrize("argv", [["explain", "tables.printed"], ["fixtures", "check"]])
@pytest.mark.parametrize("module, name", [(prooftree, "EXPECTED"), (delpezzo, "_DATA")])
def test_explain_and_fixtures_check_exit_2_on_a_missing_fixture(monkeypatch, capsys, argv,
                                                                module, name):
    fixture = delpezzo._Fixture("missing.json")
    monkeypatch.setattr(module, name, fixture)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"bad fixture: {fixture.path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [["explain", "tables.printed"], ["fixtures", "check"]])
def test_explain_and_fixtures_check_exit_2_on_a_fixture_lacking_a_key(monkeypatch, capsys, argv):
    fixture = delpezzo._Fixture("config_tables.json")
    fixture._data = {}
    monkeypatch.setattr(delpezzo, "_DATA", fixture)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"bad fixture: {fixture.path}: no key 'tables_8pt'\n"


def test_explain_reads_a_fixture_only_when_its_closure_does(monkeypatch, capsys):
    monkeypatch.setattr(delpezzo, "_DATA", delpezzo._Fixture("missing.json"))
    assert main(["explain", "t.ii"]) == 0
    assert capsys.readouterr().err == ""


def test_each_printed_table_is_built_once_and_handed_on(monkeypatch):
    """run("all") builds the eight printed tables once, in tables.printed, and the
    pairing check, the quadratic move and the three audits read those objects."""
    built, read = [], {}

    def builder(original):
        def fn(*args):
            built.append(original(*args))
            return built[-1]
        return fn

    def reader(name, original, position):
        def fn(*args):
            read.setdefault(name, []).append(id(args[position]))
            return original(*args)
        return fn

    for name in ("table_8pt", "table_14pt"):
        monkeypatch.setattr(delpezzo, name, builder(getattr(delpezzo, name)))
    for name, position in (("check_8pt_pairings", 1), ("lines_to_contracted_move", 0),
                           ("elim_p_3l1", 0), ("elim_p_3l12", 0), ("elim_p_3l13", 0)):
        monkeypatch.setattr(delpezzo, name, reader(name, getattr(delpezzo, name), position))
    report = run("all")
    assert report.verdict == "verified"
    verified = {name: id(table) for name, table in report.results["tables.printed"].value.items()}
    assert len(built) == 8 and list(verified.values()) == [id(t) for t in built]
    assert read == {
        "check_8pt_pairings": [verified[n] for n in sorted(verified) if n.startswith("8pt:")],
        "lines_to_contracted_move": [verified["14pt:lines-lines"]],
        "elim_p_3l1": [verified["14pt:lines-lines"]],
        "elim_p_3l12": [verified["14pt:contracted-conic"]],
        "elim_p_3l13": [verified["14pt:contracted-contracted"]]}


def test_a_variant_s_kinds_are_read_from_its_rows(monkeypatch):
    # contracted-contracted with the H row of contracted-line still verifies as a
    # table, but its kinds are those of contracted-line: the pair (contracted,
    # contracted) e.f2 admits has no table
    data = copy.deepcopy(delpezzo._DATA)
    variants = data["fh_variants"]
    variants["contracted-contracted"]["H"] = variants["contracted-line"]["H"]
    monkeypatch.setattr(delpezzo, "_DATA", data)
    result = run("tables.printed").results["tables.printed"]
    assert "14pt:contracted-contracted: ok" in result.trace
    assert result.status == "failed"


def test_t_no4_reads_its_bound_off_n_range(full_report, monkeypatch):
    assert "the cases left at l >= 2 are ['1e']" in full_report.results["t.no4"].trace
    # a floor of 3 on n moves the first l at which n = 3l - 4 is admissible to 3
    node = full_report.registry["t.no4"]
    ins = {d: full_report.results[d] for d in node.deps}
    monkeypatch.setattr(adjoint, "n_range", lambda ell: (max(3, 3 * ell - 4), 3 * ell))
    assert node.run(ins).trace[-1] == "the cases left at l >= 3 are ['1e']"


def test_coverage_reads_its_bound_off_l_n(full_report):
    line = "n = 3l - 4 needs l >= {} and dies with it"
    assert full_report.results["coverage"].trace[-1].endswith(line.format(2))
    # raised floors on n move the first l at which n = 3l - 4 lies in l.n's range
    node = full_report.registry["coverage"]
    for floor, bound in ((2, 2), (3, 3)):
        ins = {d: full_report.results[d] for d in node.deps}
        ranges = {ell: (max(floor, lo), hi) for ell, (lo, hi) in ins["l.n"].value.items()}
        ins["l.n"] = Outcome(ins["l.n"].status, ranges)
        assert node.run(ins).trace[-1].endswith(line.format(bound))


def test_importing_the_cli_loads_no_rational_number_module():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import godeaux3.cli\n"
            "print(*sorted({'fractions', 'decimal', 'numbers'} & (set(sys.modules) - before)))\n"
            "print('cli' in dir(godeaux3))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(godeaux3.__file__)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.splitlines()
    assert out == ["", "True"]

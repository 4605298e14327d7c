import json
from collections import Counter
from dataclasses import replace

import pytest

from godeaux3 import fibration, pencil, report as report_mod
from godeaux3.cli import main
from godeaux3.prooftree import (EXPECTED, VERIFIED, Outcome, ProofNode,
                                build_nodes, topological_order)
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
    assert sorted(ledger) == EXPECTED["axioms"]


def test_dependency_graph_acyclic():
    registry = build_nodes()
    order = topological_order(registry)
    position = {nid: i for i, nid in enumerate(order)}
    for nid, node in registry.items():
        for dep in node.deps:
            assert position[dep] < position[nid]


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
    assert any("pencil list" in m for m in messages)


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


def test_cli_rejects_jobs(capsys):
    assert main(["run", "--jobs", "4"]) == 2
    capsys.readouterr()


def _run_with(monkeypatch, change):
    """Run the whole tree after ``change`` edits a fresh node table."""
    registry = build_nodes()
    change(registry)
    monkeypatch.setattr(report_mod, "build_nodes", lambda: registry)
    return run("all")


@pytest.mark.parametrize("nid", COVERAGE_CLOSERS + ("p.1e", "p.no0d", "p.l0"))
def test_emptied_closes_fails_coverage_and_root(monkeypatch, nid):
    def empty(registry):
        registry[nid] = replace(registry[nid], closes=())

    report = _run_with(monkeypatch, empty)
    assert report.results[nid].status != "failed"
    assert report.results["coverage"].status == "failed"
    assert report.results["t.final"].status == "failed"


@pytest.mark.parametrize("nid", COVERAGE_CLOSERS)
def test_closer_dropped_from_coverage_fails_root(monkeypatch, nid):
    def drop(registry):
        cov = registry["coverage"]
        registry["coverage"] = replace(cov, deps=tuple(d for d in cov.deps if d != nid))

    report = _run_with(monkeypatch, drop)
    assert report.results["coverage"].status == "failed"
    assert any("closed by no node" in line for line in report.results["coverage"].trace)
    assert report.results["t.final"].status == "failed"


def test_root_checks_the_status_of_each_main_case(monkeypatch):
    def soften(registry):
        registry["t.i"] = replace(registry["t.i"], fn=lambda _: Outcome(VERIFIED))

    report = _run_with(monkeypatch, soften)
    assert report.results["t.i"].status == "verified"
    assert report.results["t.final"].status == "failed"


def test_root_reads_the_main_cases_and_coverage_only():
    registry = build_nodes()
    assert len(registry) == 84
    assert set(registry["t.final"].deps) == {"t.i", "t.ii", "coverage"}


def test_every_node_feeds_the_root():
    assert set(run("t.final").order) == set(build_nodes())


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
        registry["t.no1rul"] = replace(registry["t.no1rul"], fn=lambda _: Outcome(VERIFIED))

    report = _run_with(monkeypatch, soften)
    assert report.results["t.no1rul"].closes == ((1, 0, "ruled"),)
    assert report.results["coverage"].status == "failed"
    assert report.results["t.final"].status == "failed"

"""Report assembly for the proof-tree runs: deterministic text and JSON."""

from __future__ import annotations

import time
from collections import Counter

from .delpezzo import FixtureError
from .prooftree import EXPECTED, FAILED, SCHEMA_VERSION, Outcome, ProofNode, build_nodes


class Report:
    __slots__ = ("selector", "results", "order", "registry", "timings")

    def __init__(self, selector: str, results: dict[str, Outcome], order: list[str],
                 registry: dict[str, ProofNode], timings: dict[str, float]) -> None:
        self.selector, self.results, self.order = selector, results, order
        self.registry, self.timings = registry, timings

    @property
    def verdict(self) -> str:
        return "verified" if not self.failed_nodes() else "failed"

    def failed_nodes(self) -> list[str]:
        return [nid for nid in self.order if self.results[nid].status == FAILED]

    def counts(self) -> dict[str, int]:
        return dict(Counter(self.results[nid].status for nid in self.order))

    def axiom_ledger(self) -> list[dict]:
        out = []
        for nid in self.order:
            node = self.registry[nid]
            if node.kind == "axiom":
                out.append({"id": nid, "statement": node.title,
                            "source": EXPECTED["axioms"][nid][1]})
        return out

    def to_json(self, include_timing: bool = False) -> dict:
        data = {
            "schema_version": SCHEMA_VERSION,
            "selector": self.selector,
            "verdict": self.verdict,
            "counts": dict(sorted(self.counts().items())),
            "nodes": [
                {
                    "id": nid,
                    "kind": self.registry[nid].kind,
                    "title": self.registry[nid].title,
                    "status": self.results[nid].status,
                    "depends_on": sorted(self.registry[nid].deps),
                    "trace": list(self.results[nid].trace),
                }
                for nid in self.order
            ],
            "axioms": self.axiom_ledger(),
        }
        if include_timing:
            data["timing"] = {nid: round(t, 6) for nid, t in sorted(self.timings.items())}
        return data

    def to_text(self, include_timing: bool = False) -> str:
        lines = [f"proof verification report (schema {SCHEMA_VERSION})",
                 f"selector: {self.selector}", ""]
        width = max(len(nid) for nid in self.order)
        for nid in self.order:
            node = self.registry[nid]
            status = self.results[nid].status
            lines.append(f"{nid:<{width}}  [{node.kind:<13}]  {status}")
        lines.append("")
        counts = self.counts()
        lines.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        axioms = self.axiom_ledger()
        if axioms:
            lines.append(f"assumed statements ({len(axioms)}):")
            for ax in axioms:
                lines.append(f"  {ax['id']}: {ax['statement']} ({ax['source']})")
        if include_timing and self.timings:
            lines.append("timing (s):")
            for nid, t in sorted(self.timings.items()):
                lines.append(f"  {nid}: {t:.6f}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


class UnknownSelector(KeyError):
    pass


def _select(registry: dict[str, ProofNode], selector: str) -> list[str]:
    """The closure of the selected nodes, in the declaration order of ``registry``.

    A selector is ``all``, a node id, or a case id (``i``, ``1e``, ``N``, ...),
    which picks every node whose ``closes`` names it.
    """
    if selector == "all":
        roots = list(registry)
    elif selector in registry:
        roots = [selector]
    else:
        roots = [nid for nid, node in registry.items() if selector in node.closes]
        if not roots:
            raise UnknownSelector(selector)
    wanted = set(roots)
    for nid in reversed(registry):  # every dependency is declared before its node
        if nid in wanted:
            wanted.update(registry[nid].deps)
    return [nid for nid in registry if nid in wanted]


def run(selector: str = "all", excluded: tuple[str, ...] = ()) -> Report:
    """Evaluate the selected subtree once, in one pass in declaration order.

    Each node reads the outcomes of its dependencies.  A node whose dependency
    failed fails without running, and ``excluded`` nodes fail without running.
    """
    registry = build_nodes()
    order = _select(registry, selector)
    results: dict[str, Outcome] = {}
    timings: dict[str, float] = {}
    for nid in order:
        node = registry[nid]
        start = time.perf_counter()
        failed = sorted(d for d in node.deps if results[d].status == FAILED)
        if nid in excluded:
            results[nid] = Outcome(FAILED, trace=["excluded from this run"])
        elif failed:
            results[nid] = Outcome(FAILED, trace=[f"dependency failed: {', '.join(failed)}"])
        else:
            try:
                results[nid] = node.run({d: results[d] for d in node.deps})
            except FixtureError:  # bad input, not a failed node
                raise
            except Exception as exc:  # a crash is a failed node, not a crashed run
                results[nid] = Outcome(FAILED, trace=[f"exception: {exc!r}"])
        timings[nid] = time.perf_counter() - start
    return Report(selector, results, order, registry, timings)


def explain(node_id: str) -> str:
    """A node's derivation, after evaluating its closure: each input and its status."""
    report = run(node_id)
    if node_id not in report.results:
        raise UnknownSelector(node_id)
    node = report.registry[node_id]
    result = report.results[node_id]
    lines = [f"{node_id} [{node.kind}] {node.title}", f"status: {result.status}"]
    if result.sides:
        lines.append(f"sides: {result.sides[0]} vs {result.sides[1]}")
    if node.deps:
        lines.append("depends on:")
        lines.extend(f"  {dep}: {report.results[dep].status}" for dep in sorted(node.deps))
    lines.append("derivation:")
    lines.extend(f"  {line}" for line in result.trace)
    return "\n".join(lines) + "\n"


# the nodes that compare the live code with the shipped fixtures
FIXTURE_NODES = ("p.list0", "p.list1", "p.list2", "r.N", "e.sys", "sixtuples",
                 "tables.printed", "cases.main", "p.0", "p.1", "p.3", "t.iii", "t.iii2",
                 "p.3l-12", "p.3l-13")


def fixtures_check() -> tuple[bool, list[str]]:
    """Evaluate the fixture nodes and report each one's status; each passes unless failed."""
    results = run("all").results
    messages = [f"{nid}: {results[nid].status}" for nid in FIXTURE_NODES]
    return all(results[nid].status != FAILED for nid in FIXTURE_NODES), messages

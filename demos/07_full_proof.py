"""Run the entire proof tree and summarize the report.

Equivalent to `verify run`; the JSON form is byte-identical across runs.
Removing any assumed statement flips the root to failed, because the failure
reaches it through the nodes that use the statement, so the axiom ledger is
load-bearing.
"""

from godeaux3.report import run

report = run("all")
print(f"verdict: {report.verdict}")
print(f"nodes: {len(report.order)}  counts: {report.counts()}")

print("\neliminations ending in the expected contradiction:")
for nid in report.order:
    if report.results[nid].status == "contradiction-as-expected":
        print(f"  {nid}: {report.registry[nid].title}")

print("\nassumed statements:")
for ax in report.axiom_ledger():
    print(f"  {ax['id']}: {ax['statement']}")

print("\nremoving an axiom breaks the root:")
broken = run("all", excluded=("ax.elliptic-degree",))
print(f"  without ax.elliptic-degree the verdict is {broken.verdict!r}")

print("\nsingle-node views:")
for nid in ("t.ii", "p.no2", "p.equiv0"):
    sub = run(nid)
    print(f"  run({nid!r}) -> {sub.verdict} over {len(sub.order)} node(s)")

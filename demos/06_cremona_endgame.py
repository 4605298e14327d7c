"""The plane endgame: Diophantine systems, Cremona moves, eigenvalue audits.

The surviving branches put everything in the plane.  The multiplicity system
has seven solutions forming a single Cremona orbit; normalizing the degree
and listing the possible exceptional curves leaves four printed
configurations, each of which fails an exact mod-3 eigenvalue audit.
"""

from godeaux3 import (cremona_orbit_connect, homaloidal_eliminate,
                      sixtuple_enumerate, solve_multiplicity_system)
from godeaux3.delpezzo import (all_printed_tables, eigenvalue_audit,
                               elim_p_3l1, elim_p_3l12, elim_p_3l13)
from godeaux3.plane import verify_config_table

solutions = solve_multiplicity_system(2, 2, 8)
print("multiplicity system: sum j^2 s = d^2 - 2, sum j s = 3d - 2, <= 8 points")
for d0, s in solutions:
    print(f"  d0 = {d0}: {s}")

chains = cremona_orbit_connect(solutions)
print("\nCremona orbit (moves from the degree-9 normal form):")
for state in sorted(chains, reverse=True):
    print(f"  d0 = {state[0]}: {len(chains[state])} move(s)")

print("\nhomaloidal contradictions in the ruled branch:")
for branch in ("generic", "A'=N"):
    res = homaloidal_eliminate(branch)
    print(f"  {branch}: {res['verdict']}")
    for line in res["trace"]:
        print("    " + line)

print("\nadmissible degree six-tuples:", sixtuple_enumerate()["kept"])

print("\nprinted configuration tables:")
tables = dict(all_printed_tables())
for name, table in tables.items():
    ok, _ = verify_config_table(table)
    print(f"  {name}: {'passes' if ok else 'FAILS'}")

print("\neigenvalue audits:")
for fn, variant in ((elim_p_3l1, "lines-lines"), (elim_p_3l12, "contracted-conic"),
                    (elim_p_3l13, "contracted-contracted")):
    e = fn(tables[f"14pt:{variant}"])
    print(f"  {e.prop_id}: {e.verdict}")

print("\nthe audit needs the planar-point equations; the degree equation alone")
print("is satisfiable:", eigenvalue_audit(tables["14pt:lines-lines"], []).verdict)

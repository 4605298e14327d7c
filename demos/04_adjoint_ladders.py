"""The adjoint ladder of the pencil and its forced cycle counts.

Contracting the cycles orthogonal to the pencil at each adjoint step
terminates after at most four levels.  The table prints the rows N_1 ... N_4
of one recurrence; with the deepest branch's counts the row N_4 is zero.
Each displayed linear-equivalence ladder holds as an exact identity in a
concrete blown-up lattice, and the vanishing of the last adjoint pins the
remaining cycle counts.
"""

from godeaux3 import adjoint_table, n_range, verify_ladder_identity
from godeaux3.adjoint import n_prime_one_is_contradiction

print("admissible cycle counts n per l:")
for ell in range(0, 4):
    print(f"  l = {ell}: n in {n_range(ell)}")

print("\nadjoint table in the pencil case with l = 1, n = 3:")
for row in adjoint_table(0, -5, 1, (3, 0, 1, 1)):
    print(f"  N_{row.index}: square {row.ni2}, K-degree {row.nik}, "
          f"genus {row.pa}, previous dot {row.prev_dot}")

for branch in ("s.3l", "s.3l-1", "s.3l-2"):
    report = verify_ladder_identity(branch, ell=1)
    print(f"\nladder {branch}: identities hold = {report.ok}; "
          f"forced counts {report.forced}")

print("\nn' = 1 in the deepest branch would force N_1 = N_2, i.e. an effective")
print("canonical class:", n_prime_one_is_contradiction(1))

"""Euler-number eliminations: trapped negative curves versus the excess delta.

Each elimination regenerates both sides of its inequality from the raw case
parameters.  The composite pass closes the first two main cases entirely and
cuts the pencil case down to seven surviving (l, shape) pairs.
"""

from godeaux3 import enumerate_main_cases, fibration, pencil

h2_ii = next(c.h2 for c in enumerate_main_cases() if c.id == "ii")
for prop in ("t.ii", "p.no0", "p.noZ", "p.noN", "p.noN1", "p.no16", "t.no1rul"):
    e = fibration.ALL_DELTA_ELIMINATIONS[prop](*((h2_ii,) if prop == "t.ii" else ()))
    print(f"{e.prop_id}: {e.lhs} vs {e.rhs} -> {e.verdict}")
    if e.survivors:
        print(f"   survivors: {list(e.survivors)}")

print("\nEuler pass over the pencil-case lists:")
passes = {c.label: fibration.eliminate_by_delta(c)
          for aprime2 in (0, 1) for c in pencil.enumerate_pencil_cases(aprime2)}
for label, e in sorted(passes.items()):
    print(f"  ({label}): {e.lhs} vs {e.rhs}, surviving l = {list(e.survivors)}")
passes["N"] = fibration.eliminate_by_delta("N")
print(f"  (N): surviving l = {list(passes['N'].survivors)}")

survivors = fibration.t_iii_survivors(passes)
print("\nsurvivors after the Euler pass:", survivors)

print("\nlattice-based eliminations:")
closed = set()
case = {label: e.case for label, e in passes.items()}  # the record each pass judged
# (1e) at every n - 3l from 0 down to -3 (t.no4 takes -4); (0d) at l = 1, where it survives
for e, labels in ((fibration.elim_t_no4(case["1e"]), ()),
                  (fibration.elim_p_1e(case["1e"], (0, -1, -2, -3)), ("1e",)),
                  (fibration.elim_p_no0d(case["0d"], 1), ("0d",))):
    print(f"  {e.prop_id}: {e.verdict}")
    if e.verdict == "contradiction":
        closed.update(labels)
for label, e in sorted(fibration.elim_p_l0([case[lab] for lab in ("0a", "0c", "0f")]).items()):
    print(f"  {e.prop_id}: {e.verdict}")
    if e.verdict == "contradiction":
        closed.add(label)

print("\nfinal pencil-case survivors:", fibration.t_iii2_survivors(survivors, closed))

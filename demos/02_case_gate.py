"""The numerical gate: an order-3 automorphism leaves only three cases.

The fixed-point budget, the two routes to K_Y^2, and the dimension pair
(h^0(N), h^0(2K_Y+B)) are pure integer formulas in (R_0.K_S, h_2); brute
force over the grid leaves exactly three combinations.
"""

from godeaux3 import (KS2, RamificationData, enumerate_main_cases, fixed_point_budget, h0_pair,
                      kx2, quotient_k2)

print("surface invariants: K^2 =", KS2, " chi =", 1, " p_g =", 0)

for case in enumerate_main_cases():
    print(f"case ({case.id}): R_0.K = {case.r0k}, h_2 = {case.h2}, "
          f"h^0(N) = {case.h0_n}, h^0(2K_Y+B) = {case.h0_2kb}")

# Rejected combinations fail the integrality or range checks:
for bad in ((0, 7), (1, 6)):
    try:
        h0_pair(*bad)
    except Exception as exc:
        print(f"(R_0.K, h_2) = {bad} rejected: {exc}")

# Instantiating the pencil case at each l pins every invariant:
for ell in range(0, 3):
    r = RamificationData(0, ell, 1)
    ky2 = quotient_k2(r)
    print(f"pencil case, l = {ell}: h_1 = {r.h1}, budget = {fixed_point_budget(r)}, "
          f"K_Y^2 = {ky2}, K_X^2 = {kx2(r, ky2)}")

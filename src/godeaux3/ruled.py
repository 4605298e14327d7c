"""Ruled branches: the minimal-model ladder over a Hirzebruch surface.

The two branches where an adjoint system is a base-point-free rational pencil
map the quotient onto F_a; after reduction to a = 1 the whole configuration
becomes plane data and the homaloidal systems take over.
"""

from __future__ import annotations

from math import isqrt

from .adjoint import LadderReport, ladder_top
from .cover import MAIN_CASES, quotient_k2
from .fibration import B0_SQ, CYCLE_SQ, EXC_SQ, Elimination, euler_excess, trapped
from .lattice import IntersectionLattice, blow_up
from .plane import PlaneError, multiplicity_vectors

# Points blown up on F_a in the ruled branches; with a = 1 they are the simple
# points of every plane model there.
RULED_POINTS = 9


def singular_fiber_need(a: int, beta_i: int) -> int:
    """Delta-contribution 2 beta_i + 7 - 3a that the singular fibres carry."""
    if a not in (0, 1, 2):
        raise PlaneError("a must be 0, 1 or 2")
    return 2 * beta_i + 7 - 3 * a


def singular_fiber_count_bound(a: int, beta_i: int) -> int:
    """Least r >= 0 with singular_fiber_need(a, beta_i) <= 6r."""
    return max(0, -(-singular_fiber_need(a, beta_i) // 6))


def fa_ladder_checks(a: int, steps: int) -> dict:
    """Verify the ladder over F_a as exact identities on F_a blown up at the
    ``RULED_POINTS`` points.

    ``steps`` is the number of adjoint steps between the rational pencil and N
    (3 for the deepest branch, 2 for the middle one).  Returns the squares of
    the ladder classes, the section's pairing with N and the branch class N - 3K.
    """
    lat = IntersectionLattice.hirzebruch(a)
    for _ in range(RULED_POINTS):
        lat = blow_up(lat)
    k = lat.k
    pencil = lat.basis_class("f")
    chain = [pencil]
    for _ in range(steps):
        chain.append(chain[-1] - k)
    n_class = chain[-1]
    branch = n_class - 3 * k
    return {
        "squares": [cls.square for cls in chain],
        "c_dot_n": lat.basis_class("c").dot(n_class),
        "branch_coeffs": {"c": branch.coeffs[0], "f": branch.coeffs[1],
                          "delta": branch.coeffs[2]},
    }


def _double_root(poly: tuple[int, int, int]) -> int:
    """The double root of a0 + a1 d + a2 d^2, which must be an integer."""
    a0, a1, a2 = poly
    if a2 == 0 or a1 * a1 != 4 * a0 * a2 or a1 % (2 * a2):
        raise PlaneError(f"consistency polynomial {poly} has no integer double root")
    return -a1 // (2 * a2)


def _degree_verdict(poly: tuple[int, int, int], required_degree: int) -> tuple[int, str]:
    """The degree d the polynomial forces: a contradiction exactly when d != required."""
    d = _double_root(poly)
    return d, "contradiction" if d != required_degree else "survives"


def homaloidal_eliminate(branch: str) -> dict:
    """Replay the plane-model contradiction for the deepest ruled branch.

    ``branch`` is "generic" (moving part with square 1 and genus 2, covering
    the surviving cases with an exceptional part) or "A'=N" (no exceptional
    part, where the pencil itself has degree 10).  The three multiplicity
    equations overdetermine the degree: their resultant is the exact square
    (d - 6)^2, and d = 6 then violates the count of available points.
    """
    if branch == "generic":
        abar_sq, pa = 1, 2
    elif branch == "A'=N":
        abar_sq, pa = 3, 3
    else:
        raise PlaneError("branch must be 'generic' or \"A'=N\"")
    trace = []
    # mu = d - 6 from A'.(pencil) = 6; then for each d:
    #   sum j s_j       = 2d + 7
    #   sum j^2 s_j     = d^2 - abar_sq
    #   sum j(j-1) s_j  = (d-1)(d-2) - (d-6)(d-7) - 2 pa = 10d - 44 - 2(pa - 2)
    lin = lambda d: 2 * d + 7
    sq = lambda d: d * d - abar_sq
    jj = lambda d: 10 * d - 44 - 2 * (pa - 2)
    # consistency polynomial sq - lin - jj must be the square (d - 6)^2;
    # evaluate at three points and interpolate exactly
    vals = {d: sq(d) - lin(d) - jj(d) for d in (0, 1, 2)}
    a2 = (vals[0] - 2 * vals[1] + vals[2]) // 2
    a1 = vals[1] - vals[0] - a2
    a0 = vals[0]
    poly = (a0, a1, a2)
    if poly != (36, -12, 1):
        raise PlaneError(f"consistency polynomial {poly} is not (d-6)^2")
    trace.append("sum j^2 s - sum j s - sum j(j-1) s = d^2 - 12 d + 36 = (d-6)^2")
    if branch == "A'=N":
        required_degree = 10  # the pencil class itself has plane degree 10
        d, verdict = _degree_verdict(poly, required_degree)
        trace.append(f"(d-6)^2 = 0 forces d = {d}, but the pencil has degree {required_degree}")
        return {"branch": branch, "poly": poly, "d": d,
                "required_degree": required_degree, "verdict": verdict,
                "trace": trace}
    d = _double_root(poly)
    lin6, sq6 = lin(d), sq(d)
    trace.append(f"d = {d}: sum j s_j = {lin6}, sum j^2 s_j = {sq6}")
    trace.append(f"20 s5 + 12 s4 + 6 s3 + 2 s2 = {sq6 - lin6}")
    # every point carries multiplicity >= 1, so lin6 bounds the point count
    least = min(multiplicity_vectors(lin6, sq6, lin6), key=lambda s: sum(s.values()))
    s4, s2, s1 = (least.get(j, 0) for j in (4, 2, 1))
    trace.append(f"s1 + s2 = {s1 + s2} = 11 + 2 s4 with s4 = {s4}; "
                 f"needs > {RULED_POINTS} points")
    if s1 + s2 != 11 + 2 * s4:
        raise PlaneError("count identity fails")
    return {"branch": branch, "poly": poly, "d": d, "min_points": sum(least.values()),
            "available": RULED_POINTS,
            "verdict": "contradiction" if s1 + s2 > RULED_POINTS else "survives",
            "trace": trace}


def elim_l_a2(steps: int) -> Elimination:
    """0 <= a <= 2 over a ladder of ``steps`` adjoint steps, as the section meets the nef
    class N nonnegatively: c.N = (2s + 1) - s a falls with a, so a runs to the first c.N < 0."""
    values = {a: fa_ladder_checks(a, steps)["c_dot_n"] for a in (0, 1)}
    if values[1] >= values[0]:
        raise PlaneError(f"c.N does not fall from a = 0 to a = 1 over {steps} steps")
    while min(values.values()) >= 0:
        values[len(values)] = fa_ladder_checks(len(values), steps)["c_dot_n"]
    admissible = [a for a, v in values.items() if v >= 0]
    return Elimination(
        "l.a2", str(values), "c.N >= 0",
        "survives" if admissible == [0, 1, 2] else "contradiction",
        tuple(f"a={a}: c.N = {v}" for a, v in values.items()),
        tuple(admissible),
    )


def elim_p_no2(a_values: tuple[int, ...]) -> Elimination:
    """The largest admissible a needs at least three singular fibres, so a reduces to 1."""
    beta = {a: 3 * a for a in a_values}
    need = {a: singular_fiber_need(a, b) for a, b in beta.items()}
    r_needed = {a: singular_fiber_count_bound(a, b) for a, b in beta.items()}
    top = max(a_values)
    ok = r_needed[top] >= 3
    return Elimination(
        "p.no2", str(need[top]), str(6 * top),
        "contradiction" if ok else "survives",
        tuple(f"a={a}: Delta-contribution {need[a]} <= 6r needs r >= {r}"
              for a, r in sorted(r_needed.items())) + (
            f"with at most two singular fibres a = {top} is impossible, so a reduces to 1",),
    )


def elim_t_no0(steps: int) -> Elimination:
    """Deepest ruled branch with l = 0, ``steps`` deep: both plane models are impossible."""
    ladder = fa_ladder_checks(1, steps)
    checks = [
        ladder["squares"] == [0, 3, 4, 3],
        ladder["branch_coeffs"] == {"c": 12, "f": 19, "delta": -6},
    ]
    generic = homaloidal_eliminate("generic")
    special = homaloidal_eliminate("A'=N")
    ok = all(checks) and generic["verdict"] == "contradiction" \
        and special["verdict"] == "contradiction"
    trace = [f"ladder over F_1: squares {ladder['squares']}, branch {ladder['branch_coeffs']}"]
    trace += generic["trace"]
    trace += special["trace"]
    return Elimination(
        "t.no0", "(d-6)^2 = 0", f"{RULED_POINTS} points",
        "contradiction" if ok else "failed", tuple(trace),
    )


def _t_no1_plane_scan() -> tuple[list, list[str]]:
    """Plane-model search for the genus-two branch of the middle ruled case.

    Meeting the contracted (-1)-cycles z_1 >= z_2 times and the middle cycle z' times
    leaves k = 5 - 2(z_1 + z_2) - z' >= 1 and a degree-d model with a point of multiplicity
    d - k >= 0 and P = ``RULED_POINTS`` points of sum lin = (4d + c)/2, c = 3k - 3 - z', and
    square sum sq = 2dk - k^2 - Abar^2.  Cauchy-Schwarz, lin^2 <= P sq, puts d between
    (Pk - c -+ sqrt(disc))/4, disc = P((P - 4)k^2 - 2ck - 4 Abar^2).  Returns every model
    (z_1, z_2, z', d, {m: count}) there and a trace line per subcase, listing its models."""
    models, trace = [], []
    p, k_top = RULED_POINTS, 5  # k_top: k at z_1 = z_2 = z' = 0
    for z1 in range((k_top + 1) // 2):
        for z2 in range(0, z1 + 1):
            for zp in range(0, k_top - 2 * (z1 + z2)):
                k = k_top - 2 * (z1 + z2) - zp
                abar_sq, c = 1 + z1 * z1 + z2 * z2 + zp * zp, 3 * k - 3 - zp
                disc, x = p * ((p - 4) * k * k - 2 * c * k - 4 * abar_sq), p * k - c
                window = range(0) if disc < 0 else range(  # between the roots, from k
                    max(k, (x - isqrt(disc) + 3) // 4), (x + isqrt(disc)) // 4 + 1)
                found = [(z1, z2, zp, d, v) for d in window for v in
                         multiplicity_vectors((4 * d + c) // 2, 2 * d * k - k * k - abar_sq, p)]
                models += found
                listed = ", ".join(f"({d}; {d - k}, " + ", ".join(f"{j}^{s}" if s > 1 else str(j)
                                   for j, s in v.items()) + ")" for *_, d, v in found)
                span = f"d in {window[0]}..{window[-1]}" if window else f"no d has lin^2 <= {p} sq"
                trace.append(f"(A'.Z1, A'.Z2, A'.Z') = ({z1},{z2},{zp}): {span}, "
                             + (f"plane models {listed}; delegated" if found else "no plane model"))
    return models, trace


def elim_t_no1(steps: int) -> Elimination:
    """Middle ruled branch with l = 1, ``steps`` deep: the pencil branch dies by Euler
    count, the genus-two branch by the plane scan except two delegated subcases."""
    trace = []
    # the two-step ladder over F_1 behind the plane model of this branch
    ladder = fa_ladder_checks(1, steps)
    if ladder["squares"] != [0, 3, 4] or ladder["c_dot_n"] != 3:
        return Elimination("t.no1", "ladder", "squares [0, 3, 4]", "failed",
                           (f"unexpected ladder data {ladder}",))
    trace.append(f"two-step ladder over F_1: squares {ladder['squares']}, "
                 f"branch class {ladder['branch_coeffs']}")
    # A' = N: delta of |N| against F', H', the h_1 E', B_0 and two contracted cycles
    r = MAIN_CASES["iii"].datum(1)
    delta_val = euler_excess(quotient_k2(r), *ladder_top(r.r0k))
    contributions = trapped((2 + r.h1, EXC_SQ), (1, B0_SQ), (2, CYCLE_SQ))
    if contributions <= delta_val:
        return Elimination("t.no1", str(contributions), str(delta_val), "failed",
                           ("expected the pencil branch to overshoot",))
    trace.append(f"A' = N: trapped contributions {contributions} > delta = {delta_val}")
    models, scan = _t_no1_plane_scan()
    trace += scan
    expected_open = {(0, 0, 1), (1, 0, 1)}
    got_open = {model[:3] for model in models}
    verdict = "contradiction" if got_open == expected_open else "failed"
    trace.append(
        "remaining genus-two subcases closed by the companion plane-model analysis "
        "(assumed; see the axiom ledger)")
    return Elimination("t.no1", str(contributions), str(delta_val), verdict,
                       tuple(trace), tuple(sorted(got_open)))


def elim_t_no3ldp(ladders: dict[str, dict[int, LadderReport]]) -> Elimination:
    """The three remaining branches over eight or thirteen points.

    ``ladders`` maps each branch to its ladder reports by l, as the ladder
    nodes verified them; the final configuration analysis is not printed and
    enters as an assumption.
    """
    trace = []
    checks = []
    for branch, ell in (("s.3l", 0), ("s.3l-2", 1), ("s.3l-1", 1)):
        rep = ladders[branch][ell]
        checks.append(rep.ok)
        trace.append(f"{branch} at l={ell}: ladder ok={rep.ok}, forced {rep.forced}")
    trace.append("branch closures delegated to the companion computation "
                 "(assumed; see the axiom ledger)")
    return Elimination(
        "t.no3lDP", "ladders verified", "closure assumed",
        "contradiction" if all(checks) else "failed", tuple(trace),
    )

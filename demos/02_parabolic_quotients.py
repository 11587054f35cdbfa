"""Parabolic quotients W^H: R-tables, the up-down symmetry, and P-polynomials.

W^H (minimal coset representatives under Bruhat order) is a pircon, and the
left multiplication partial matchings

    u  ->  su   if su stays in W^H,   u -> u otherwise

form a pircon system whose R^x-polynomials are Deodhar's parabolic ones.
They satisfy the *up-down symmetry* (the recursion also holds with the roles
of u and w flipped), which forces the kernel identity

    sum_z R_{u,z} q^(rho(z,v)) R_{z,v}(1/q) = delta_{u,v},

and kernel inversion then yields the parabolic P^x-polynomials.
"""

from pircons import (CoxeterSystem, X_PARAMS, check_pkernel, check_updown,
                     lambda_refinement, r_polynomials)

W = CoxeterSystem({"type": "B", "rank": 3})
quot = W.quotient({1, 2})            # H = {s2, s3}
P = quot.poset
print(f"W^H has {P.n} elements, top rank {P.max_rank()}")

matchings = quot.lambda_matchings   # lambda_s for each s, without repeats
refinement = lambda_refinement(quot)

for x in X_PARAMS:
    r = r_polynomials(P, refinement, x)
    print(f"\nx = {x}")
    print("  up-down symmetry:", check_updown(matchings, r))
    # the kernel check is kernel inversion: it returns P with its verdict
    ok, witness, p = check_pkernel(r)
    print("  kernel identity: ", (ok, witness))
    interesting = {(P.labels[u], P.labels[w]): str(poly)
                   for u, w, poly in p.rows()
                   if poly.degree() >= 1 or (u != w and not poly)}
    print("  nontrivial P-values:", interesting or "all 0/1")

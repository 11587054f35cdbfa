"""The two Hecke-module structures, their involutions, and the KL bases.

The free module with basis {m_u : u in P} carries two Hecke-algebra actions
(parameters x = q and x = -1).  The R-table defines a bar-type involution
iota^x, the rank function a diagonal twist j_P, and the P-tables two bases
C^x_w and C'^x_w.  The key dualities:

    iota^x(T_M . m) = T_M^(-1) . iota^x(m)
    j_P(T_M .x m)   = -q^(-1) T_M .z j_P(m)      ({x,z} = {q,-1})
    iota^x o j_P    = j_P o iota^z
    j_P(C^x_w)      = (-1)^rho(w) C'^z_w

and C'^x_w is computable by a recursion with mu-coefficients, which this
script replays against the direct construction.  Module vectors are packed
ints; ``ctx.decode`` turns one into a dict of readable Laurent
coefficients.
"""

from pircons import (CoxeterSystem, HeckeContext, X_PARAMS,
                     cprime_recursion, kl_element_c, kl_element_cprime,
                     verify_duality, verify_hecke_relations)

W = CoxeterSystem({"type": "A", "rank": 2})
quot = W.quotient({1})                   # the chain e < s1 < s2.s1
ctx = HeckeContext(quot.poset, quot.system)   # checks the quotient's system
P = ctx.poset

for x in X_PARAMS:
    print(f"Hecke relations (x = {x}):", verify_hecke_relations(ctx, x))
print("duality suite:", verify_duality(ctx))


def show(v):
    """A packed module vector as sum_u (c_u)*m[u]."""
    return " + ".join(f"({c})*m[{u}]"
                      for u, c in sorted(ctx.decode(v).items())) or "0"


top = P.index("2.1")
for x in X_PARAMS:
    print(f"\nx = {x}")
    print("  C [top] =", show(kl_element_c(ctx, top, x)))
    print("  C'[top] =", show(kl_element_cprime(ctx, top, x)))
    for M in ctx.system.down_matchings(top):
        rhs = cprime_recursion(ctx, top, M, x)
        print("  recursion reproduces C':",
              rhs == kl_element_cprime(ctx, top, x))

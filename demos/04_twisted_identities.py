"""Twisted identities of S_(2n) and Kazhdan-Lusztig-Vogan polynomials.

With theta the diagram flip of S_(2n), the set {theta(w^(-1)) w} ordered by
Bruhat order is a dircon: all SPMs of every element are coherent, so the
R^x-families do not depend on any choices.  Its R^q-family gives the
Kazhdan-Lusztig-Vogan R-polynomials and its R^(-1)-family the KLV
Q-polynomials of the symmetric pair (SL(2n), Sp(2n)).
"""

from pircons import TwistedIdentities, is_dircon
from pircons.twisted import KLV_Q, KLV_R

for n in (2, 3):
    T = TwistedIdentities(n)
    P = T.poset
    print(f"n = {n}: {P.n} twisted identities, top rank {P.max_rank()}, "
          f"dircon: {is_dircon(P)}")

T = TwistedIdentities(3)
P = T.poset
r = T.system.r_table(KLV_R)        # the system's tables at x = q and -1
qtab = T.system.r_table(KLV_Q)
e = P.bottom
top = P.top
print("\nKLV values against the maximal twisted identity", P.labels[top])
for u in P.ideal_elements(top):
    print(f"  R[{P.labels[u]}] = {str(r.value(u, top)):<28} "
          f"Q[{P.labels[u]}] = {qtab.value(u, top)}")

"""The Harder-Narasimhan recursion and Poincare polynomials.

The class [R_d^sst]/[G_d] of the semistable locus modulo the base-change
group lives in rational functions of one variable L, with denominators
dividing products of L and (L^n - 1).  For theta-coprime d, multiplying by
(L - 1) and substituting L -> t^2 yields the Poincare polynomial of the
smooth moduli space; t = 1 gives the Euler characteristic.
"""

from quivermoduli import Quiver, Stability, euler_char, hn_sst_class, hn_types, poincare

K3 = Quiver.kronecker(3)
stab = Stability.of({"i1": 1, "j1": 0})

# -- filtration types ----------------------------------------------------------

print("filtration types of (1,1):")
for typ in hn_types(K3, stab, {"i1": 1, "j1": 1}):
    print("  ", typ)

# -- the stack class and its specializations ------------------------------------

for d in ({"i1": 1, "j1": 1}, {"i1": 2, "j1": 3}, {"i1": 3, "j1": 4}):
    cls = hn_sst_class(K3, stab, d)
    p = poincare(K3, stab, d)
    print("\nd = (%d,%d)" % (d["i1"], d["j1"]))
    print("  [R^sst]/[G] =", cls)
    print("  Poincare coefficients:", list(p.c))
    print("  Euler characteristic:", euler_char(K3, stab, d))

# -- Poincare duality is visible as palindromic coefficients ---------------------

p = poincare(K3, stab, {"i1": 2, "j1": 3})
assert list(p.c) == list(reversed(p.c))
print("\n(2,3) coefficients are palindromic: duality P(t) = t^deg P(1/t)")

# -- a complete bipartite example -----------------------------------------------

K23 = Quiver.complete_bipartite(2, 3)
stab23 = Stability.of({v: (1 if v.startswith("i") else 0) for v in K23.ids})
ones = {v: 1 for v in K23.ids}
print("\nK(2,3) at the all-ones vector: chi =", euler_char(K23, stab23, ones))
print("(the same 6 reappears as a stable-tree count in demo 04)")

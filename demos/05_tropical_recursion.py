"""The recursive tropical curve count and the degeneration identity.

N(w1, w2) counts rational tropical curves with prescribed unbounded edge
weights, recursively: split off the last entry of w2, sum over admissible
decompositions and compatible set partitions, and multiply the glueing
determinants.  Summed over refinements with ramification weights, the counts
reproduce the Euler characteristic of the bipartite quiver moduli space.
"""

from quivermoduli import (
    Refinement,
    chi_trees,
    degeneration_total,
    mps_euler,
    n_trop,
    ramification_factor,
    refinements,
    weight_vector_of,
)

# -- base cases and small counts -----------------------------------------------

print("single vertex (a)|(b) counts a*b:", n_trop((3,), (2,)))
print("N((2),(1,1,1)) =", n_trop((2,), (1, 1, 1)))
print("N((1,1),(1,1,1)) =", n_trop((1, 1), (1, 1, 1)))
print("N((1,1,1),(1^4)) =", n_trop((1, 1, 1), (1, 1, 1, 1)))

# -- the worked multiplicity breakdown of (2,3) ----------------------------------

print("\n(2,3) with all weights 1 decomposes as (2,2) or (1,1)+(1,1):")
print("  from the (2,2) piece: 2 * N((1,1),(1,1)) =", 2 * n_trop((1, 1), (1, 1)))
print("  from the two (1,1) pieces:", n_trop((1, 1), (1, 1, 1)) - 2 * n_trop((1, 1), (1, 1)))

# -- the repeated-piece convention -------------------------------------------------
# Ordered set partitions double-count identical pieces (8 here); dividing by
# the multiplicity factorials is what matches the tree count.

print("\nN((1,1),(1,1,1)) =", n_trop((1, 1), (1, 1, 1)), "= stable tree count",
      chi_trees(Refinement.of([((1, 2),)], [((1, 1),)] * 3)))

# -- ramification factors -----------------------------------------------------------

print("\nR_(2)|(1,1) =", ramification_factor((2,), (1, 1)))
print("R_(2)|(2)   =", ramification_factor((2,), (2,)))
print("R_(1,1)|(1,1) =", ramification_factor((1, 1), (1, 1)))

# -- the degeneration sum = the tree sum = chi ----------------------------------------

for p1, p2 in [((2,), (1, 1, 1)), ((2,), (1,) * 5), ((1, 1), (1, 1, 1))]:
    print("\n(P1, P2) = (%r, %r)" % (p1, p2))
    for r in refinements(p1, p2):
        w1, w2 = weight_vector_of(r.k1), weight_vector_of(r.k2)
        print("  refinement with weights %r | %r: N = %d, trees = %d"
              % (w1, w2, n_trop(w1, w2), chi_trees(r)))
    print("  degeneration total:", degeneration_total(p1, p2))
    print("  tree-sum total:    ", mps_euler(p1, p2))

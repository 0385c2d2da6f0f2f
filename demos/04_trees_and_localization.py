"""Euler characteristics as stable-tree counts, and the two recursive
constructions on the quiver side.

With an all-ones dimension vector, torus-fixed stable representations are
spanning trees of the support quiver passing an exact slope test; counting
them computes chi.  Trees can be built recursively: glue semistable pieces
at a fresh sink, or extend a (d-1, d) datum to d*d data of type (d, d+1).
"""

from quivermoduli import (
    Quiver,
    Refinement,
    admissible_decompositions,
    chi_trees,
    dd1_extensions,
    dd1_family,
    glue,
    spanning_trees,
    stability_weight,
)
from quivermoduli.localization import (
    SpanningTree,
    is_stable_type_one,
    stable_trees,
    type_one_support,
)

# -- tree counting ------------------------------------------------------------

r = Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),), ((1, 1),)])
trees = spanning_trees(r)
print("K(2,3): %d spanning trees, %d stable"
      % (len(trees), sum(stability_weight(T) for T in trees)))

r2 = Refinement.of([((2, 1),)], [((1, 1),)] * 5)
print("weight-2 source over 1^5: chi_trees =", chi_trees(r2), "(= 2^5 parallel choices)")

# chi_trees builds no tree here: K(2,13) has 53,248 labelled trees, but
# stability is read off the vertex counts of subtrees, and the subtree holding
# the second source has 1 to 13 of the sinks, so the count is a 13-term sum
r3 = Refinement.of([((1, 2),)], [((1, 1),)] * 13)
print("K(2,13): chi_trees =", chi_trees(r3))

# -- admissible decompositions ---------------------------------------------------

print("\n1-admissible decompositions of (2,3):", admissible_decompositions(2, 3, 1))
print("1-admissible decompositions of (4,5):", admissible_decompositions(4, 5, 1))

# -- glueing --------------------------------------------------------------------

star = lambda tag, n: Quiver(
    tuple([(("s", 1, tag), 1)] + [(("t", tag, k), 1) for k in range(n)]),
    tuple((("s", 1, tag), ("t", tag, k)) for k in range(n)))
glued = glue([(star("a", 2), {v: 1 for v in star("a", 2).ids}),
              (star("b", 2), {v: 1 for v in star("b", 2).ids})], 1)
print("\ntwo (1,2)-stars glued at a new level-1 sink -> stable:",
      is_stable_type_one(glued.quiver))

# -- the (d, d+1) family ----------------------------------------------------------

for d in (1, 2, 3):
    family = dd1_family(d)
    union = set().union(*family.values())
    brute = len(stable_trees(type_one_support(d, d + 1)))
    print("\n(%d,%d): per-decomposition counts %s, union %d, brute force %d"
          % (d, d + 1, {k: len(v) for k, v in family.items()}, len(union), brute))

(base12,) = stable_trees(type_one_support(1, 2))
print("\nthe unique (1,2) datum extends to %d data of type (2,3)"
      % len(dd1_extensions(base12)))

# -- a glued datum whose cycles over-count curves ----------------------------------
# Take the (3,4) tree with sources i1 -> {j1,j2}, i2 -> {j2,j3}, i3 -> {j2,j4}
# and glue a fifth sink receiving one arrow from every source.  The glued
# quiver has two independent cycles; deleting two arrows appropriately gives
# SIX tree subdata that are localization data, while the glueing vertex on
# the curve side has multiplicity |e*0 - d*(0+1)| = 3: the correspondence
# between subdata and curves is not one-to-one for cyclic glued tuples.

srcs = [("src", 1, k) for k in (1, 2, 3)]
snks = [("snk", 1, k) for k in (1, 2, 3, 4)]
arrows = [
    (srcs[0], snks[0]), (srcs[0], snks[1]),
    (srcs[1], snks[1]), (srcs[1], snks[2]),
    (srcs[2], snks[1]), (srcs[2], snks[3]),
]
piece = Quiver(tuple((v, 1) for v in srcs + snks), tuple(arrows))
glued = glue([(piece, {v: 1 for v in piece.ids})], 1)
Qg = glued.quiver
print("\nglued (3,4)+sink quiver: %d vertices, %d arrows (two cycles)"
      % (len(Qg.ids), len(Qg.arrows)))

from itertools import combinations

subdata = 0
for drop in combinations(range(len(Qg.arrows)), 2):
    keep = tuple(i for i in range(len(Qg.arrows)) if i not in drop)
    try:
        T = SpanningTree(Qg, keep)
    except ValueError:
        continue
    subdata += stability_weight(T)
print("tree subdata that are localization data:", subdata)
print("curves obtained by glueing a slope-(3,4) curve and a slope-(0,1) line: 3")

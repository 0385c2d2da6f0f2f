"""Ordered factorization in the tropical vertex group.

Wall automorphisms x -> x f^-b, y -> y f^a over a divided-power ring (one
class per side and weight, a single square-zero token being a class of cap
1) compose to products that factor uniquely with slopes decreasing left to
right.  The wall on the slope of a refinement's dimension vector carries
the tropical count as the coefficient of the top monomial, every class at
its cap: an oracle for the recursion that is entirely algebra, no geometry.
"""

from quivermoduli import (
    Refinement,
    TruncatedElement,
    WallAutomorphism,
    extract_n_trop,
    factorize,
    ks_operators,
    n_trop,
)
from quivermoduli.vertex import compose_apply, token_classes

# -- the pentagon ------------------------------------------------------------

u, v = ("u", 1, 1), ("v", 1, 1)
theta_x = WallAutomorphism((1, 0), TruncatedElement.one()
                           + TruncatedElement.monomial(1, 0, (u,), 1))
theta_y = WallAutomorphism((0, 1), TruncatedElement.one()
                           + TruncatedElement.monomial(0, 1, (v,), 1))
fact = factorize([theta_x, theta_y])
print("pentagon walls (slope decreasing):")
for wall in fact.walls:
    print("  direction %r: %r" % (wall.direction, wall.f))

# -- recomposition is exact -----------------------------------------------------

x = TruncatedElement.monomial(1, 0)
y = TruncatedElement.monomial(0, 1)
assert compose_apply(fact.walls, x) == compose_apply([theta_x, theta_y], x)
assert compose_apply(fact.walls, y) == compose_apply([theta_x, theta_y], y)
print("\nrecomposing the ordered product reproduces the input exactly")

# -- scattering a refinement -------------------------------------------------------

r = Refinement.of([((1, 2),)], [((1, 1),), ((1, 1),), ((1, 1),)])
fact = factorize(ks_operators(r))
top = {cls: cls[2] for cls in token_classes(r)}
print("\nwalls for the all-ones refinement of ((1,1),(1,1,1)), classes %r:"
      % sorted(top))
for wall in fact.walls:
    full = [c for (_, _, s), c in wall.f.terms.items() if dict(s) == top]
    print("  direction %r, %d terms%s"
          % (wall.direction, len(wall.f.terms) - 1,
             ", top-class coefficient %r" % full[0] if full else ""))
print("extracted count:", extract_n_trop(fact, r),
      " recursion says:", n_trop((1, 1), (1, 1, 1)))

# -- a level-2 entry -----------------------------------------------------------------
# A weight-2 sink contributes theta_(1,0) with function 1 + 2 u x^2 after
# truncating (1 + (ux)^2)^2 by u^2 = 0.

r2 = Refinement.of([((2, 1),)], [((1, 1),), ((1, 1),), ((1, 1),)])
ops = ks_operators(r2)
print("\nweight-2 source operator function:", ops[-1].f)
print("extracted count for the weight-2 refinement:",
      extract_n_trop(factorize(ops), r2))

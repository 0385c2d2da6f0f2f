"""The flagship cross-validation: four independent algorithms, one integer.

For a coprime pair of ordered partitions, the Euler characteristic of the
moduli space of stable representations of the complete bipartite quiver is
computed four ways:

  hn        Harder-Narasimhan recursion in the localized Grothendieck ring
  mps       degeneration sum over refinements with stable-tree counts
  tropical  degeneration sum with the recursive tropical counts
  vertex    degeneration sum with counts read off wall functions

The family (2, 1^(2n+1)) has the closed form
binom(2n+1, n) binom(n+1, n) / 2 - 2^(2n+1) / 4.
"""

import time
from math import comb

from quivermoduli import degeneration_total, euler_char, mps_euler
from quivermoduli.quiver import bipartite_setup
from quivermoduli.vertex import n_trop_via_factorization


def chi_four_ways(p1, p2):
    Q, d, stab = bipartite_setup(p1, p2)
    out = {}
    for name, fn in (
        ("hn", lambda: euler_char(Q, stab, d)),
        ("mps", lambda: mps_euler(p1, p2)),
        ("tropical", lambda: degeneration_total(p1, p2)),
        ("vertex", lambda: degeneration_total(
            p1, p2, trop_count=n_trop_via_factorization)),
    ):
        t0 = time.monotonic()
        out[name] = (fn(), time.monotonic() - t0)
    return out


print("%-18s %8s %8s %8s %8s   closed form" % ("(P1, P2)", "hn", "mps", "trop", "vertex"))
for n in (1, 2, 3, 4):
    p1, p2 = (2,), (1,) * (2 * n + 1)
    closed = comb(2 * n + 1, n) * comb(n + 1, n) // 2 - 2 ** (2 * n + 1) // 4
    res = chi_four_ways(p1, p2)
    values = [res[m][0] for m in ("hn", "mps", "tropical", "vertex")]
    assert len(set(values)) == 1 and values[0] == closed
    print("(2, 1^%d)%9s %8d %8d %8d %8d   %d"
          % (2 * n + 1, "", *values, closed))

print()
for p1, p2 in [((1, 1), (1, 1, 1)), ((2, 1), (1, 1)), ((3,), (1, 1, 1, 1)),
               ((2, 2), (1, 1, 1))]:
    res = chi_four_ways(p1, p2)
    values = {m: v for m, (v, _) in res.items()}
    assert len(set(values.values())) == 1
    print("%r | %r: all four methods give %d" % (p1, p2, values["hn"]))

print("\ntimings for the largest run (seconds):")
res = chi_four_ways((2,), (1,) * 9)
for m, (v, dt) in res.items():
    print("  %-8s chi = %-4d %.2fs" % (m, v, dt))

"""The reference computation: a fixed pure-Python kernel that every child
times right before and right after its calls, to measure how fast the
machine runs Python at that moment.

It resembles the library's hot paths (a memoized recursion, dicts keyed by
tuples and frozensets, Fraction sums, integer polynomial products) but does
not use the library, so a change to the library never changes it.
"""

import time
from fractions import Fraction


def kernel():
    memo = {}

    def count(n, k):
        if n == 0:
            return 1
        key = (n, k)
        if key not in memo:
            memo[key] = sum(count(n - j, j) for j in range(1, min(n, k) + 1))
        return memo[key]

    partitions = 0
    for n in range(1, 60):
        memo.clear()
        partitions += count(n, n)
    sums = {}
    for i in range(1, 3000):
        key = (i % 31, i % 17, frozenset((i % 5, i % 7)))
        sums[key] = sums.get(key, 0) + Fraction(i % 11 + 1, i % 13 + 1)
    poly = [1]
    for i in range(60):
        step = [0] * (len(poly) + 1)
        for j, c in enumerate(poly):
            step[j] += c
            step[j + 1] += c * (i + 1)
        poly = step
    return partitions, len(sums), poly[-1]


def seconds():
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

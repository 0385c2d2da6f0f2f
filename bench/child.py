"""One measured unit of the benchmark: a fresh interpreter that imports the
library, runs a list of calls in order and reports what they returned.

Reads a job from stdin as JSON, ``{"calls": [[op, args], ...], "trace": bool}``,
and writes one JSON object to stdout: the monotonic time at which
``import quivermoduli`` returned, per call ``[value, seconds, error]``, the
mean seconds of the reference kernel timed before and after the calls, the
process's peak resident memory, and the traced spans when asked for.  Memos
start cold with the process and stay warm across its calls.  Started by
``run.py`` with ``src`` on ``PYTHONPATH``.
"""

import json
import os
import resource
import sys
import time

import quivermoduli

IMPORTED_AT = time.monotonic()

from quivermoduli import motive, symfunc, tropical, vertex  # noqa: E402
from quivermoduli.quiver import Quiver, Stability  # noqa: E402

import reference  # noqa: E402


def _bipartite(p1, p2):
    """Complete bipartite quiver with sources of dims p1 (theta 1) and sinks
    of dims p2 (theta 0), the setting of the four chi methods."""
    Q = Quiver.complete_bipartite(len(p1), len(p2))
    d, theta = {}, {}
    for k, p in enumerate(p1):
        d["i%d" % (k + 1)], theta["i%d" % (k + 1)] = p, 1
    for k, p in enumerate(p2):
        d["j%d" % (k + 1)], theta["j%d" % (k + 1)] = p, 0
    return Q, d, Stability.of(theta)


def _kronecker(m, d1, d2):
    return Quiver.kronecker(m), {"i1": d1, "j1": d2}, Stability.of({"i1": 1, "j1": 0})


def chi(method, p1, p2):
    p1, p2 = tuple(p1), tuple(p2)
    if method == "hn":
        Q, d, s = _bipartite(p1, p2)
        return motive.euler_char(Q, s, d)
    if method == "mps":
        return tropical.mps_euler(p1, p2)
    if method == "tropical":
        return tropical.degeneration_total(p1, p2)
    if method == "vertex":
        return tropical.degeneration_total(
            p1, p2, trop_count=vertex.n_trop_via_factorization)
    raise ValueError("unknown method %r" % (method,))


def poincare(m, d1, d2):
    Q, d, s = _kronecker(m, d1, d2)
    return list(motive.poincare(Q, s, d).c)


IDENTITIES = {
    "mps": motive.motivic_mps_check,
    "partition": motive.partition_form_check,
    "dual": motive.dual_mps_check,
}


def identity(kind, m, d1, d2, vertex_id):
    Q, d, s = _kronecker(m, d1, d2)
    return IDENTITIES[kind](Q, s, vertex_id, d)


def lemma3(n):
    lhs, rhs = symfunc.lemma3_identity(n)
    return lhs == rhs


def specialize(n):
    """Principal specialization commutes with the e -> p base change at e_n."""
    direct = symfunc.principal_specialize(symfunc.SymPoly.basis_element("e", (n,)))
    return direct == symfunc.principal_specialize(symfunc.e_to_p(n))


OPS = {"chi": chi, "poincare": poincare, "identity": identity,
       "lemma3": lemma3, "specialize": specialize}


def run(calls):
    results = []
    for op, args in calls:
        t0 = time.perf_counter()
        try:
            value = OPS[op](*args)
        except Exception as exc:  # every failure is reported, never dropped
            results.append([None, time.perf_counter() - t0, "%s: %s" % (type(exc).__name__, exc)])
        else:
            results.append([value, time.perf_counter() - t0, None])
    return results


def main():
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(quivermoduli.__file__).startswith(src + os.sep):
        sys.exit("imported %s, not the package under %s" % (quivermoduli.__file__, src))
    job = json.load(sys.stdin)
    before = reference.seconds()
    trace = None
    if job.get("trace"):
        from tracer import Tracer

        with Tracer() as tracer:
            results = run(job["calls"])
        trace = tracer.report()
    else:
        results = run(job["calls"])
    after = reference.seconds()
    json.dump({
        "imported_at": IMPORTED_AT,
        "reference_s": (before + after) / 2,
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace,
    }, sys.stdout)


if __name__ == "__main__":
    main()

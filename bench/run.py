"""The quivermoduli benchmark: cold per-method time to an exact, verified chi.

Run from the repository root::

    python3 bench/run.py --workload family --seed 1 --seconds 40 --trace 0

Workloads (see ``WORKLOADS``):

* ``family``  -- chi of the flagship type (2, 1^(2n+1)), one fresh process
  per (method, n); checked against the closed form.
* ``scan``    -- chi of all 199 coprime pairs of partitions with total size
  <= 8, one fresh process per method with memos warm across pairs; checked
  by four-way agreement per pair.
* ``motivic`` -- Poincare polynomials of Kronecker quivers K3, K4, K5 at
  (d, d+1), the motivic MPS / partition-form / dual identities, the
  q-identity and principal specialization; checked against pinned values,
  Poincare duality and the identities holding.

A workload is a list of jobs; each job is a list of calls that one fresh,
single-threaded interpreter (``child.py``) runs, so memos start cold in
every job and stay warm across its calls.  Jobs run one at a time, in the
order the seed gives.  Each child also times a fixed reference kernel
(``reference.py``) before and after its calls.

With ``--trace 0`` every job runs once, then the jobs are cycled again while
the next run fits in ``--seconds``.  The end-to-end metrics are

* ``setup_s``     -- median wall time from launching an interpreter until
  ``import quivermoduli`` returned, over at least SETUP_SAMPLES launches;
* ``total_ref``   -- sum over the jobs of the job's fastest run, each run's
  seconds divided by that child's reference-kernel seconds (the raw
  seconds per method are on the record line);
* ``peak_rss_mb`` -- largest peak resident memory of any child.

With ``--trace 1`` every job runs once untraced and once traced, and the
per-layer metrics of the traced round are printed, with the tracing
overhead and the untraced seconds per method.  Every answer is checked
exactly; a wrong value or an exception is a failed operation, and the
command exits 1 when any operation failed.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, the raw seconds and the error rate.  Traced spans
are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from tracer import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"
BUDGET_S = 165.0  # stop starting work after this; a run must end within 180 s
SETUP_SAMPLES = 12  # import-only children pad a run to this many launches
METHODS = ("hn", "mps", "tropical", "vertex")
LANES = METHODS + ("identity",)

# family: n ladders per method, each a few seconds per round; vertex stops at
# n = 3 because n = 4 alone takes ~10 s, too long to repeat within a run
FAMILY_LADDERS = {"hn": range(3, 7), "mps": range(3, 7),
                  "tropical": range(5, 10), "vertex": range(2, 4)}
# scan: total size <= 8 (199 pairs, ~6 s per round); <= 9 takes ~30 s
SCAN_MAX_TOTAL = 8
# motivic: Kronecker K_m at (d, d+1), with chi as computed at the commit that
# introduced this benchmark (the K3 values are the classical ones)
KRONECKER_CHI = {
    3: (3, 13, 68, 399, 2530, 16965, 118668, 857956),
    4: (6, 58, 703, 9729, 146916, 2359968),
    5: (10, 170, 3685, 91881, 2509584, 73083880),
}
IDENTITY_POINTS = ((3, 3, 4), (3, 4, 5))
LEMMA3_MAX = 10
SPECIALIZE_MAX = 10


@dataclass
class Call:
    """One library call in a child, the lane its time counts to, and how its
    answer is checked: ``("equals", v)``, ``("true",)``,
    ``("poincare", m, d1, d2, chi)`` or ``("agree", key)`` (all calls with
    the same key must return the same value)."""

    lane: str
    op: str
    args: tuple
    check: tuple


def closed_form(n):
    """chi of (2, 1^(2n+1)): binom(2n+1, n) binom(n+1, n) / 2 - 2^(2n+1) / 4."""
    return int(Fraction(comb(2 * n + 1, n) * comb(n + 1, n), 2) - Fraction(2 ** (2 * n + 1), 4))


def family(rng):
    jobs = [[Call(m, "chi", (m, (2,), (1,) * (2 * n + 1)), ("equals", closed_form(n)))]
            for m, ns in FAMILY_LADDERS.items() for n in ns]
    rng.shuffle(jobs)
    return jobs


def coprime_pairs(max_total):
    """Pairs of partitions (weakly decreasing tuples) of coprime sizes."""
    def partitions(n, top):
        if n == 0:
            yield ()
        for k in range(min(n, top), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    return [(p1, p2)
            for total in range(2, max_total + 1)
            for d in range(1, total) if gcd(d, total - d) == 1
            for p1 in partitions(d, d) for p2 in partitions(total - d, total - d)]


def scan(rng):
    pairs = coprime_pairs(SCAN_MAX_TOTAL)
    rng.shuffle(pairs)
    jobs = [[Call(m, "chi", (m, p1, p2), ("agree", (p1, p2))) for p1, p2 in pairs]
            for m in METHODS]
    rng.shuffle(jobs)
    return jobs


def motivic(rng):
    """One job per Kronecker ladder (ascending, memos warm along it), one per
    identity point (both vertices, all three identities) and one for the
    q-identity and principal specialization."""
    jobs = [[Call("hn", "poincare", (m, d, d + 1), ("poincare", m, d, d + 1, chi))
             for d, chi in enumerate(chis, 1)]
            for m, chis in KRONECKER_CHI.items()]
    for m, d1, d2 in IDENTITY_POINTS:
        calls = [Call("identity", "identity", (kind, m, d1, d2, v), ("true",))
                 for v in ("i1", "j1") for kind in ("mps", "partition", "dual")]
        rng.shuffle(calls)
        jobs.append(calls)
    symmetric = ([Call("identity", "lemma3", (n,), ("true",)) for n in range(1, LEMMA3_MAX + 1)]
                 + [Call("identity", "specialize", (n,), ("true",))
                    for n in range(1, SPECIALIZE_MAX + 1)])
    rng.shuffle(symmetric)
    jobs.append(symmetric)
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"family": family, "scan": scan, "motivic": motivic}


# -- checking -----------------------------------------------------------------


def poincare_ok(coeffs, m, d1, d2, chi):
    """Palindromic, nonnegative integer coefficients, degree 2(1 - <d,d>) and
    value chi at t = 1, for the Kronecker quiver K_m at (d1, d2)."""
    if not coeffs or any(type(c) is not int or c < 0 for c in coeffs):
        return False
    euler = d1 * d1 + d2 * d2 - m * d1 * d2
    return (coeffs == coeffs[::-1] and len(coeffs) - 1 == 2 * (1 - euler)
            and sum(coeffs) == chi)


def failures(calls, outcomes):
    """Per call, whether it failed: it raised, or its value is wrong."""
    failed = [error is not None for _, error in outcomes]
    groups = {}
    for k, (call, (value, _)) in enumerate(zip(calls, outcomes)):
        kind = call.check[0]
        if kind == "agree":
            groups.setdefault(call.check[1], []).append(k)
        elif failed[k]:
            continue
        elif kind == "equals":
            failed[k] = value != call.check[1]
        elif kind == "true":
            failed[k] = value is not True
        elif kind == "poincare":
            failed[k] = not poincare_ok(value, *call.check[1:])
        else:
            raise ValueError("unknown check %r" % (kind,))
    for members in groups.values():
        values = {json.dumps(outcomes[k][0]) for k in members}
        if len(members) < len(METHODS) or len(values) != 1 or any(failed[k] for k in members):
            for k in members:
                failed[k] = True
    return failed


# -- running ------------------------------------------------------------------


def launch(calls, trace, deadline):
    """Run one child over ``calls``; returns its result dict (with
    ``setup_s`` added) or ``None`` with the reason it produced none."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, "time budget exhausted before launch"
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    job = json.dumps({"calls": [[c.op, c.args] for c in calls], "trace": trace})
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, err = proc.communicate(job, timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, err.strip()[-500:])
    result = json.loads(out)
    result["setup_s"] = result["imported_at"] - launched
    return result, None


@dataclass
class Runs:
    """What the children launched for one workload measured.  ``seconds[i]``
    holds the timed seconds of each run of job ``i``."""

    jobs: list
    seconds: list
    relative: list
    setup: list
    rss_kb: list
    calls: list
    outcomes: list
    trace: dict

    def lanes(self, relative=False):
        """Per lane, the sum over its jobs of the job's fastest run, in
        seconds or, with ``relative``, in units of the reference kernel.

        A job is a deterministic computation, so its repeats differ only by
        interference from other work on the machine, which only adds time.
        On a shared 2-core Xeon VM the speed of Python code also drifted by
        20-35% between runs a minute apart; dividing each run by the
        reference kernel timed in the same process cut the run-to-run spread
        of the total two- to threefold."""
        out = dict.fromkeys(LANES, 0.0)
        for job, runs in zip(self.jobs, self.relative if relative else self.seconds):
            if runs:
                out[job[0].lane] += min(runs)
        return out


def run_jobs(jobs, trace, deadline, until=None):
    """Run every job once, in order; then, if ``until`` is given, keep cycling
    through the jobs while the next run is expected to end by ``until``.
    Finally pad the launches with import-only children up to SETUP_SAMPLES."""
    runs = Runs(jobs, [[] for _ in jobs], [[] for _ in jobs], [], [], [], [],
                {"spans": {}, "edges": {}, "counters": {}, "distinct": {}})
    last = [0.0] * len(jobs)
    clean = True
    k = 0
    while k < len(jobs) or (clean and until is not None
                            and time.monotonic() + last[k % len(jobs)] <= until):
        i = k % len(jobs)
        k += 1
        started = time.monotonic()
        result, reason = launch(jobs[i], trace, deadline)
        last[i] = time.monotonic() - started
        runs.calls += jobs[i]
        if result is None:
            runs.outcomes += [(None, reason)] * len(jobs[i])
            clean = False
            continue
        record(runs, result)
        runs.seconds[i].append(sum(seconds for _, seconds, _ in result["results"]))
        runs.relative[i].append(runs.seconds[i][-1] / result["reference_s"])
        runs.outcomes += [(value, error) for value, _, error in result["results"]]
        clean = clean and all(error is None for _, _, error in result["results"])
    while len(runs.setup) < SETUP_SAMPLES:
        result, _ = launch([], False, deadline)
        if result is None:
            break
        record(runs, result)
    return runs


def record(runs, result):
    runs.setup.append(result["setup_s"])
    runs.rss_kb.append(result["maxrss_kb"])
    if result["trace"]:
        merge_trace(runs.trace, result["trace"])


def merge_trace(into, report):
    for name, span in report["spans"].items():
        acc = into["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        for key in acc:
            acc[key] += span[key]
    for parent, child, n in report["edges"]:
        key = "%s -> %s" % (parent, child)
        into["edges"][key] = into["edges"].get(key, 0) + n
    for field in ("counters", "distinct"):
        for name, n in report[field].items():
            into[field][name] = into[field].get(name, 0) + n


def end_to_end(runs):
    lanes = runs.lanes(relative=True)
    return {
        "setup_s": {"value": statistics.median(runs.setup), "unit": "s"},
        "total_ref": {"value": sum(lanes.values()), "unit": "ref"},
        "peak_rss_mb": {"value": max(runs.rss_kb) / 1024, "unit": "MB"},
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(untraced, traced):
    t = traced.trace
    out = {}
    for name in SPAN_NAMES:
        span = t["spans"].get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        out[name + ".calls"] = (span["calls"], "count")
        out[name + ".self_s"] = (span["self_s"], "s")
        out[name + ".errors"] = (span["errors"], "count")
    counters, distinct = t["counters"], t["distinct"]
    enumerated = counters.get("localization.trees_enumerated", 0)
    n_trop_calls = t["spans"].get("tropical.n_trop", {}).get("calls", 0)
    lanes = untraced.lanes()
    out.update({
        "localization.trees_enumerated": (enumerated, "count"),
        "localization.stable_ratio": (
            ratio(counters.get("localization.trees_stable", 0), enumerated), "ratio"),
        "tropical.n_trop.distinct": (distinct.get("tropical.n_trop", 0), "count"),
        "tropical.n_trop.hit_ratio": (
            1 - ratio(distinct.get("tropical.n_trop", 0), n_trop_calls) if n_trop_calls else 0.0,
            "ratio"),
        "tropical.refinements.yielded": (counters.get("tropical.refinements.yielded", 0), "count"),
        "vertex.trunc_mul.terms_out": (counters.get("vertex.trunc_mul.terms_out", 0), "count"),
        "vertex.via_factorization.distinct": (distinct.get("vertex.via_factorization", 0), "count"),
        "trace.overhead_frac": (ratio(sum(traced.lanes(relative=True).values()),
                                      sum(untraced.lanes(relative=True).values())) - 1, "ratio"),
    })
    for lane in LANES:
        out["method.%s_s" % lane] = (lanes[lane], "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# -- environment --------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(args, runs):
    """The run's record: inputs, machine, cache state, and the raw seconds
    per lane (sum of each job's fastest run) behind ``total_ref``."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "runs_per_job": [len(r) for r in runs.seconds],
        "lane_seconds": runs.lanes(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "commit": git_commit(),
        "children": "one fresh single-threaded interpreter per measured unit, "
                    "one at a time, PYTHONHASHSEED=0",
        "cache_state": "memos cold at the start of every child; warm within a "
                       "child across its calls (scan: across pairs; motivic: "
                       "along each Kronecker ladder and across each identity job)",
    }


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "quivermoduli", "__init__.py")):
        print("bench: run from the repository root (src/quivermoduli not found)",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + BUDGET_S
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    if args.trace:
        done = [run_jobs(jobs, False, deadline), run_jobs(jobs, True, deadline)]
    else:
        done = [run_jobs(jobs, False, deadline, until=start + args.seconds)]
    if not done[0].setup:
        print("bench: no child process could import the library", file=sys.stderr)
        return 2

    attempted = failed = 0
    for runs in done:
        bad = failures(runs.calls, runs.outcomes)
        attempted += len(bad)
        failed += sum(bad)
        for call, (value, error), b in zip(runs.calls, runs.outcomes, bad):
            if b:
                print("FAILED %s%r: %s" % (call.op, call.args, error or "wrong value %r" % (value,)),
                      file=sys.stderr)
    env = environment(args, done[0])
    if args.trace:
        metrics = per_layer(*done)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"env": env, "metrics": metrics, "trace": done[1].trace}, fh, indent=1)
    else:
        metrics = end_to_end(done[0])
    print(json.dumps({"env": env, "error_rate": failed / attempted}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of the library from outside, for the traced benchmark run.

The tracer replaces public functions and hot methods of the package modules
with wrappers that count calls, time them and subtract the time of nested
wrapped calls (self time), then restores the originals.  A function bound
into other modules by ``from ... import`` is replaced in every module that
binds it, so calls through either name are seen.  Spans are aggregated per
name (and per caller -> callee edge) in memory; nothing is written until the
caller asks for :meth:`Tracer.report`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


PACKAGE = "quivermoduli"

# (module, function, hook): public functions, wrapped in every module that
# binds them.  A hook sees (tracer, args, kwargs, result) of each call that
# returned.
FUNCTIONS = [
    ("motive", "hn_sst_class", None),
    ("motive", "is_theta_coprime", None),
    ("motive", "poincare", None),
    ("symfunc", "lemma3_identity", None),
    ("symfunc", "principal_specialize", None),
    ("quiver", "n_support", None),
    ("quiver", "hat_quiver", None),
    ("quiver", "check_quiver", None),
    ("localization", "spanning_trees",
     lambda t, a, k, out: t.count("localization.trees_enumerated", len(out))),
    ("localization", "stability_weight",
     lambda t, a, k, out: t.count("localization.trees_stable", out)),
    ("localization", "chi_trees", None),
    ("tropical", "n_trop", lambda t, a, k, out: t.distinct("tropical.n_trop", (a, k))),
    ("tropical", "refinements",
     lambda t, a, k, out: t.count("tropical.refinements.yielded", len(out))),
    ("vertex", "factorize", None),
    ("vertex", "n_trop_via_factorization",
     lambda t, a, k, out: t.distinct("vertex.via_factorization", (a, k))),
]

# (module, class, attributes sharing one wrapper, span name, hook): hot
# methods, including the reflected operator aliases.
METHODS = [
    ("ratfunc", "Poly", ("__mul__", "__rmul__"), "ratfunc.poly_mul", None),
    ("ratfunc", "Poly", ("divmod",), "ratfunc.poly_divmod", None),
    ("ratfunc", "RationalFunction", ("__init__",), "ratfunc.ratfunc_new", None),
    ("motive", "MotiveClass", ("__add__", "__radd__"), "motive.class_add", None),
    ("motive", "MotiveClass", ("__mul__", "__rmul__"), "motive.class_mul", None),
    ("vertex", "TruncatedElement", ("__mul__", "__rmul__"), "vertex.trunc_mul",
     lambda t, a, k, out: t.count("vertex.trunc_mul.terms_out", len(out.terms))),
    ("vertex", "TruncatedElement", ("unit_pow",), "vertex.unit_pow", None),
    ("vertex", "WallAutomorphism", ("apply",), "vertex.wall_apply", None),
]

SPAN_NAMES = (["%s.%s" % (m, f) for m, f, _ in FUNCTIONS]
              + [name for _, _, _, name, _ in METHODS])


def _hashable(value):
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


class Tracer:
    """Aggregated spans for a fixed table of wrapped names.

    Each wrapped name gets ``[calls, self_s, errors]``; extra counters are
    kept by small hooks that look at a call's arguments and result.
    """

    def __init__(self):
        self.stats = {}
        self.edges = {}
        self.counters = {}
        self.keys = {}
        self._stack = []  # [name, time of wrapped children] per open span
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every name in the tables above; :meth:`remove` undoes it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, attr, hook in FUNCTIONS:
            module = importlib.import_module("%s.%s" % (PACKAGE, module_name))
            original = vars(module)[attr]
            wrapper = self._wrap("%s.%s" % (module_name, attr), original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        for module_name, cls_name, attrs, name, hook in METHODS:
            cls = getattr(importlib.import_module("%s.%s" % (PACKAGE, module_name)), cls_name)
            wrapper = self._wrap(name, vars(cls)[attrs[0]], hook)
            for attr in attrs:
                self._replace(cls, attr, wrapper)
        return self

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self):
        """Restore every replaced binding, last replaced first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- spans and counters ---------------------------------------------

    def _wrap(self, name, fn, hook):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            parent = stack[-1][0] if stack else None
            edge = (parent, name)
            edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                stat[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def distinct(self, name, key):
        self.keys.setdefault(name, set()).add(_hashable(key))

    def report(self):
        """JSON-ready aggregate: per-name spans, edges, counters, distinct keys."""
        return {
            "spans": {n: {"calls": c, "self_s": s, "errors": e}
                      for n, (c, s, e) in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items(), key=str)],
            "counters": dict(sorted(self.counters.items())),
            "distinct": {n: len(k) for n, k in sorted(self.keys.items())},
        }

"""Command-line front end: cross-method agreement driver, identity
verification batches, and table/tree/wall emission.

``chi`` compares the four methods on a pair of ordered partitions; the
Harder-Narasimhan chi of a quiver read from a JSON file is ``motive chi``.

Exact rationals are serialized as "p/q" strings; integers stay JSON numbers
while they fit in 53 bits.  Exit status: 0 on agreement / all checks passed,
1 on disagreement or a failed check, 2 on usage errors: argparse's own, and
any ValueError or OSError raised by the input (a bad dimension vector, a
missing file), reported on one line of stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb, gcd

from . import clear_memos, localization, motive, tropical, vertex
from .quiver import (
    Quiver,
    Refinement,
    Stability,
    _id_str,
    bipartite_setup,
    fraction_to_str,
)
from .symfunc import lemma3_identity


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            v = int(v)
        else:
            return fraction_to_str(v)
    if isinstance(v, int):
        return v if abs(v) < 2 ** 53 else str(v)
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def _emit(payload, path):
    text = json.dumps(_json_value(payload), indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _int_list(text, flag=None):
    """The integers of the comma list ``text``; a bad entry is a ValueError
    that names it, and ``flag`` where argparse does not name the flag."""
    out = []
    for x in text.split(","):
        try:
            out.append(int(x))
        except ValueError:
            entry = "%s entry" % flag if flag else "entry"
            raise ValueError("%s %r of %r is not an integer" % (entry, x, text)) from None
    return out


def _parse_parts(s):
    try:
        parts = tuple(_int_list(s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError("parts must be positive integers")
    return parts


def _int_at_least(low):
    """An argparse type: an integer >= low."""
    def parse(s):
        try:
            n = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % s)
        if n < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, n))
        return n
    return parse


def _parse_refinement(s):
    """Syntax: parts separated by ',', weights inside a part by '+', the two
    sides separated by '|'; e.g. "1+1|1,1,1" refines ((2),(1,1,1))."""
    try:
        sides = s.split("|")
        if len(sides) != 2:
            raise ValueError
        k1, k2 = ([Counter(int(w) for w in part.split("+")) for part in side.split(",")]
                  for side in sides)
        return Refinement.of(k1, k2)
    except ValueError:
        raise argparse.ArgumentTypeError("bad refinement syntax: %r" % s)


def _load_quiver_setup(args):
    with open(args.quiver) as fh:
        Q = Quiver.from_json(json.load(fh))
    dims = _int_list(args.dim, "--dim")
    if len(dims) != len(Q.ids):
        raise ValueError("--dim needs %d entries for this quiver" % len(Q.ids))
    d = dict(zip(Q.ids, dims))
    if args.theta:
        th = _int_list(args.theta, "--theta")
        if len(th) != len(Q.ids):
            raise ValueError("--theta needs %d entries for this quiver" % len(Q.ids))
        theta = dict(zip(Q.ids, th))
    else:
        theta = {v: (1 if v in Q.sources() else 0) for v in Q.ids}
    return Q, d, Stability.of(theta)


class AgreementReport:
    """Per-method values for one input, with timing; agreement holds iff all
    computed values are equal (absent methods stay absent, never defaulted)."""

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.values = {}
        self.seconds = {}

    def agreement(self):
        vals = list(self.values.values())
        return all(v == vals[0] for v in vals) if vals else False

    def payload(self):
        return {
            "input": self.descriptor,
            "methods": self.values,
            "seconds": {k: round(v, 4) for k, v in self.seconds.items()},
            "agreement": self.agreement(),
        }


_METHODS = ("hn", "mps", "tropical", "vertex")


def _chi_by_method(method, p1, p2):
    if method == "hn":
        Q, d, stab = bipartite_setup(p1, p2)
        return motive.euler_char(Q, stab, d)
    if method == "mps":
        return tropical.mps_euler(p1, p2)
    if method == "tropical":
        return tropical.degeneration_total(p1, p2)
    if method == "vertex":
        return tropical.degeneration_total(
            p1, p2, trop_count=vertex.n_trop_via_factorization)
    raise ValueError(method)


def cmd_chi(args):
    p1, p2 = args.p1, args.p2
    if gcd(sum(p1), sum(p2)) != 1:
        raise ValueError("sizes %d, %d must be coprime" % (sum(p1), sum(p2)))
    methods = _METHODS if args.method == "all" else (args.method,)
    report = AgreementReport({"p1": list(p1), "p2": list(p2)})
    for m in methods:
        clear_memos()
        t0 = time.monotonic()
        report.values[m] = _chi_by_method(m, p1, p2)
        report.seconds[m] = time.monotonic() - t0
    _emit(report.payload(), args.emit)
    return 0 if report.agreement() else 1


def _check(label, ok, failures):
    print("%-58s %s" % (label, "pass" if ok else "FAIL"))
    if not ok:
        failures.append(label)


def _check_eulgw(max_size, failures):
    """n_trop against the stable-tree count on every refinement of the scan."""
    for p1, p2, r in tropical.refinement_scan(max_size):
        w1, w2 = tropical.weight_vector_of(r.k1), tropical.weight_vector_of(r.k2)
        _check("eulgw %r %r w=%r,%r" % (p1, p2, w1, w2),
               tropical.n_trop(w1, w2) == localization.chi_trees(r), failures)


IDENTITY_CHECKS = (
    ("mps", motive.motivic_mps_check),
    ("partition-form", motive.partition_form_check),
    ("dual-mps", motive.dual_mps_check),
)


def cmd_verify(args):
    checks = dict(IDENTITY_CHECKS)
    failures = []
    if args.suite == "lemma3":
        for n in range(1, args.max_n + 1):
            lhs, rhs = lemma3_identity(n)
            _check("lemma3 n=%d" % n, lhs == rhs, failures)
    elif args.suite in checks:
        Q, d, stab = _load_quiver_setup(args)
        ok = checks[args.suite](Q, stab, args.vertex, d)
        _check("%s %s at %s dim %s" % (args.suite, args.quiver, args.vertex, args.dim),
               ok, failures)
    elif args.suite == "eulgw":
        _check_eulgw(args.max_size, failures)
    if failures:
        print("%d check(s) FAILED" % len(failures))
        return 1
    print("all checks passed")
    return 0


def cmd_motive(args):
    Q, d, stab = _load_quiver_setup(args)
    cls = motive.hn_sst_class(Q, stab, d)
    payload = {
        "class_num": [fraction_to_str(Fraction(c)) for c in cls.num.c],
        "class_den": [fraction_to_str(Fraction(c)) for c in cls.den.c],
    }
    if args.what == "chi":
        payload["chi"] = motive.euler_char(Q, stab, d)
    else:
        poly = motive.poincare(Q, stab, d)
        payload["poincare_coefficients"] = list(poly.c)
    payload["dim"] = d
    _emit(payload, args.emit)
    return 0


def _check_refinement_sizes(args, r):
    if args.p1 and r.part_sums(1) != args.p1:
        raise ValueError("refinement does not split --p1 = %r" % (args.p1,))
    if args.p2 and r.part_sums(2) != args.p2:
        raise ValueError("refinement does not split --p2 = %r" % (args.p2,))


def cmd_localize(args):
    r = args.refinement
    _check_refinement_sizes(args, r)
    if args.what == "chi":
        payload = {
            "refinement": _refinement_payload(r),
            "chi": localization.chi_trees(r),
            "spanning_trees": localization._labelled_tree_count(*localization._support_key(r)),
        }
    else:
        trees = localization.spanning_trees(r)
        payload = {
            "refinement": _refinement_payload(r),
            "trees": [
                {
                    "arrows": [[_id_str(s), _id_str(t)] for s, t in T.arrow_pairs()],
                    "stable": bool(localization.stability_weight(T)),
                }
                for T in trees
            ],
        }
    _emit(payload, args.emit)
    return 0


def _refinement_payload(r):
    return {
        "k1": [[list(wc) for wc in part] for part in r.k1],
        "k2": [[list(wc) for wc in part] for part in r.k2],
    }


def cmd_vertex(args):
    r = args.refinement
    _check_refinement_sizes(args, r)
    fact = vertex.factorize(vertex.ks_operators(r))
    walls = []
    for wall in fact.walls:
        terms = []
        for (a, b, s), c in sorted(wall.f.terms.items(),
                                   key=lambda kv: (sum(k for _, k in kv[0][2]),) + kv[0]):
            terms.append({"x_exp": a, "y_exp": b,
                          "counts": {_id_str(cls): k for cls, k in s},
                          "coefficient": c})
        walls.append({"direction": list(wall.direction), "function": terms})
    payload = {
        "refinement": _refinement_payload(r),
        "walls": walls,
        "n_trop": vertex.extract_n_trop(fact, r),
    }
    _emit(payload, args.emit)
    return 0


def _family_rows(max_n, with_trees=False, with_walls=False):
    rows = []
    for n in range(1, max_n + 1):
        p1, p2 = (2,), (1,) * (2 * n + 1)
        contributions = []
        total = Fraction(0)
        for r in tropical.refinements(p1, p2):
            chi = localization.chi_trees(r)
            factor = tropical._refinement_factor(r)
            entry = {
                "refinement": _refinement_payload(r),
                "tree_count": chi,
                "weight": factor,
                "contribution": chi * factor,
            }
            if with_trees:
                entry["stable_trees"] = [
                    [[_id_str(s), _id_str(t)] for s, t in T.arrow_pairs()]
                    for T in localization.spanning_trees(r)
                    if localization.stability_weight(T)
                ]
            if with_walls:
                fact = vertex.factorize(vertex.ks_operators(r))
                entry["wall_directions"] = [list(w.direction) for w in fact.walls]
            contributions.append(entry)
            total += chi * factor
        closed_form = Fraction(comb(2 * n + 1, n) * comb(n + 1, n), 2) \
            - Fraction(2 ** (2 * n + 1), 4)
        row = {
            "n": n,
            "p1": list(p1),
            "p2": list(p2),
            "contributions": contributions,
            "total": total,
            "closed_form": closed_form,
        }
        rows.append(row)
    return rows


def cmd_table(args):
    rows = _family_rows(args.max_n, args.trees, args.walls)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "p1", "p2", "total", "closed_form", "contributions"])
        for row in rows:
            writer.writerow([
                row["n"],
                " ".join(map(str, row["p1"])),
                " ".join(map(str, row["p2"])),
                fraction_to_str(row["total"]),
                fraction_to_str(row["closed_form"]),
                " ".join(fraction_to_str(c["contribution"]) for c in row["contributions"]),
            ])
        text = buf.getvalue()
        if args.emit:
            with open(args.emit, "w") as fh:
                fh.write(text)
        print(text, end="")
    else:
        _emit(rows, args.emit)
    return 0 if all(r["total"] == r["closed_form"] for r in rows) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivermoduli",
        description="Euler characteristics of quiver moduli by four independent methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="cross-method agreement for a bipartite pair")
    p_chi.add_argument("--p1", type=_parse_parts, required=True,
                       help="ordered partition, e.g. 2 or 1,1")
    p_chi.add_argument("--p2", type=_parse_parts, required=True)
    p_chi.add_argument("--method", choices=_METHODS + ("all",), default="all")
    p_chi.add_argument("--emit", help="also write the JSON report to a file")
    p_chi.set_defaults(func=cmd_chi)

    p_verify = sub.add_parser("verify", help="identity verification batches")
    v_sub = p_verify.add_subparsers(dest="suite", required=True)
    v_lemma = v_sub.add_parser("lemma3")
    v_lemma.add_argument("--max-n", type=_int_at_least(1), default=8)
    for name, _ in IDENTITY_CHECKS:
        v_m = v_sub.add_parser(name)
        v_m.add_argument("--quiver", required=True)
        v_m.add_argument("--dim", required=True)
        v_m.add_argument("--vertex", required=True)
        v_m.add_argument("--theta")
    v_e = v_sub.add_parser("eulgw")
    v_e.add_argument("--max-size", type=_int_at_least(2), default=9)
    p_verify.set_defaults(func=cmd_verify)

    p_motive = sub.add_parser("motive", help="chi / Poincare polynomial for a quiver file")
    p_motive.add_argument("what", choices=("chi", "poincare"))
    p_motive.add_argument("--quiver", required=True)
    p_motive.add_argument("--dim", required=True)
    p_motive.add_argument("--theta")
    p_motive.add_argument("--emit")
    p_motive.set_defaults(func=cmd_motive)

    p_loc = sub.add_parser("localize", help="tree counting for a refinement")
    p_loc.add_argument("what", choices=("chi", "trees"))
    p_loc.add_argument("--refinement", type=_parse_refinement, required=True,
                       help='e.g. "1+1|1,1,1" (parts by comma, weights by +, sides by |)')
    p_loc.add_argument("--p1", type=_parse_parts, help="optional consistency check")
    p_loc.add_argument("--p2", type=_parse_parts)
    p_loc.add_argument("--emit")
    p_loc.set_defaults(func=cmd_localize)

    p_vtx = sub.add_parser("vertex", help="ordered factorization for a refinement")
    p_vtx.add_argument("what", choices=("factorize",))
    p_vtx.add_argument("--refinement", type=_parse_refinement, required=True)
    p_vtx.add_argument("--p1", type=_parse_parts, help="optional consistency check")
    p_vtx.add_argument("--p2", type=_parse_parts)
    p_vtx.add_argument("--emit")
    p_vtx.set_defaults(func=cmd_vertex)

    p_table = sub.add_parser("table", help="the (2, 1^(2n+1)) family table")
    p_table.add_argument("--max-n", type=_int_at_least(1), default=3)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--trees", action="store_true", help="include stable tree listings")
    p_table.add_argument("--walls", action="store_true", help="include wall directions")
    p_table.add_argument("--emit")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("quivermoduli %s: error: %s" % (args.command, exc), file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())

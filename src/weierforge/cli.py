"""Command-line front end.

Subcommands: semigroup, padic, orders, curve, two-branch, reproduce.
Exit codes: 0 success; 2 an invalid input, a ValueError or OSError naming
the option or path at fault; 3 an internal invariant failure, an
AssertionError or the ArithmeticError of an inexact division.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .curve import (
    MonomialSingularity,
    RationalCurve,
    TwoBranchSingularity,
    UnibranchSingularity,
    weight_report,
)
from .exact import GF, _checked, _is_int, field_of_characteristic
from .gallery import EXAMPLE_2_9_CHARACTERISTICS, SCENARIOS
from .numsg import NumericalSemigroup
from .padic import (
    classicality_product_test,
    monomial_order_sequence,
    satisfies_p_adic_criterion,
    uses_all_weight,
)
from .valsg2 import validate_ring, value_semigroup

USER_ERROR = 2
INTERNAL_ERROR = 3


def _ints(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")


@functools.cache    # one parser per process: parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="weierforge",
        description="Exact Weierstrass weights on rational Gorenstein curves.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sg = sub.add_parser("semigroup", help="numerical semigroup invariants",
                          parents=[common])
    group = p_sg.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", type=_ints, help="generators, e.g. 3,4")
    group.add_argument("--gaps", type=_ints, help="gap set, e.g. 1,2,5")

    p_pa = sub.add_parser("padic", parents=[common], help="digitwise criterion and classicality tests")
    p_pa.add_argument("--p", type=int, required=True)
    group = p_pa.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", type=_ints, help="sequence for the digit criterion")
    group.add_argument("--gaps", type=_ints,
                       help="gap sequence: runs the classicality and full-weight tests")

    p_or = sub.add_parser("orders", parents=[common], help="order sequence of a monomial morphism")
    p_or.add_argument("--exponents", type=_ints, required=True)
    p_or.add_argument("--p", type=int, default=0)

    p_cv = sub.add_parser("curve", parents=[common], help="weight report for a curve description file")
    p_cv.add_argument("file", help="JSON curve description")
    p_cv.add_argument("--char", type=int, default=None,
                      help="override the characteristic in the file")

    p_tb = sub.add_parser("two-branch", parents=[common], help="value semigroup of a two-branch ring")
    p_tb.add_argument("file", help="JSON ring description")

    p_rp = sub.add_parser("reproduce", parents=[common], help="run a named built-in scenario")
    p_rp.add_argument("name", help="scenario name, or 'all'; use 'list' to enumerate")
    p_rp.add_argument("--char", type=int, default=None,
                      help="run example-2.9 in one of its characteristics: 0, 2 or 3")
    return parser


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_semigroup(args):
    S = (_checked("--gens", NumericalSemigroup.from_generators, args.gens) if args.gens is not None
         else _checked("--gaps", NumericalSemigroup.from_gaps, args.gaps))
    data = S.to_json()
    lines = [
        "semigroup %s" % S,
        "gaps: %s" % (", ".join(map(str, S.gaps)) or "none"),
        "conductor: %d   genus: %d" % (S.conductor, S.genus),
        "symmetric: %s   weight: %d" % (data["symmetric"], data["weight"]),
    ]
    _emit(args, data, lines)
    return 0


def _cmd_padic(args):
    p = _checked("--p", GF, args.p).p
    if args.seq is not None:
        ok = _checked("--seq", lambda seq: satisfies_p_adic_criterion(seq, p), args.seq)
        payload = {"p": p, "sequence": args.seq, "satisfies_criterion": ok}
        _emit(args, payload, ["sequence %s %s the %d-adic criterion"
                              % (args.seq, "satisfies" if ok else "violates", p)])
        return 0
    gaps = list(_checked("--gaps", NumericalSemigroup.from_gaps, args.gaps).gaps)
    classical = classicality_product_test(gaps, p)
    full = uses_all_weight(gaps, p)
    payload = {"p": p, "gaps": gaps, "classical_product_test": classical,
               "uses_all_weight": full}
    _emit(args, payload, [
        "gaps %s at p = %d" % (gaps, p),
        "classicality product test: %s" % classical,
        "singularity uses all the weight: %s" % full,
    ])
    return 0


def _cmd_orders(args):
    p = _checked("--p", field_of_characteristic, args.p).characteristic
    orders = _checked("--exponents", lambda exponents: monomial_order_sequence(exponents, p),
                      args.exponents)
    payload = {"p": args.p, "exponents": args.exponents, "orders": list(orders)}
    _emit(args, payload, ["orders: %s" % (", ".join(map(str, orders)))])
    return 0


def _read_json_object(path, what):
    """The top-level JSON object of a description file.  A non-integer number
    is read as the text it spells, which the field reads exactly.  A file
    not UTF-8 JSON within the recursion limit is a ValueError naming its path."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=str)
        except (RecursionError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise ValueError("%s file: expected a JSON object" % what)
    return data


# (check, description) of each kind of field that only the command line
# reads; the constructors check every other value they are given
_INT = (_is_int, "an integer")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_STR = (lambda v: isinstance(v, str), "a string")
_OBJECTS = (lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
            "a list of objects")
_REQUIRED = object()


def _field(data, key, kind=None, default=_REQUIRED):
    """data[key], checked to be of the kind if one is given; errors start
    with the key."""
    if key not in data:
        if default is _REQUIRED:
            raise ValueError("%s: missing" % key)
        return default
    if kind and not kind[0](data[key]):
        raise ValueError("%s: expected %s" % (key, kind[1]))
    return data[key]


def _singularity(field, item):
    kind = _field(item, "kind", _STR)
    if kind == "monomial":
        S = _checked("generators", NumericalSemigroup.from_generators, _field(item, "generators"))
        return MonomialSingularity(field, S, _field(item, "location"))
    if kind == "unibranch":
        return UnibranchSingularity(field, _field(item, "basis"), _field(item, "conductor"),
                                    _field(item, "location"))
    if kind == "two-branch":
        ring = validate_ring(field, _field(item, "basis"), _field(item, "conductor"))
        return TwoBranchSingularity(ring, _field(item, "locations"))
    raise ValueError("kind: unknown singularity kind %r" % kind)


def _curve_from_json(data, char_override=None):
    characteristic = _field(data, "characteristic", _INT, 0)
    field = (_checked("--char", field_of_characteristic, char_override) if char_override is not None
             else _checked("characteristic", field_of_characteristic, characteristic))
    singularities = []
    for i, item in enumerate(_field(data, "singularities", _OBJECTS)):
        try:
            singularities.append(_singularity(field, item))
        except ValueError as exc:
            # a message that starts with a key (and its indices) continues the
            # singularity's path; any other is about the singularity itself
            key = str(exc).partition(":")[0].partition("[")[0]
            at = "singularities[%d]%s" % (i, "." if key.isidentifier() else ": ")
            raise ValueError(at + str(exc)) from None
    return RationalCurve(field, singularities)


def _cmd_curve(args):
    data = _read_json_object(args.file, "curve")
    X = _curve_from_json(data, args.char)
    rep = weight_report(X)
    payload = rep.to_json()
    lines = ["characteristic %d, genus %d" % (X.characteristic, X.genus),
             "orders: %s   N = %d" % (", ".join(map(str, rep.orders)), rep.N)]
    for entry in payload["weights"]:
        lines.append("weight at %s: %d" % (entry["location"], entry["weight"]))
    for entry in payload["smooth"]:
        lines.append("smooth points at %s: weight %d, %d point(s)"
                     % (entry["factor"], entry["multiplicity"], entry["degree"]))
    lines.append("total weight: %d (expected %d)" % (rep.total, rep.expected))
    _emit(args, payload, lines)
    return 0


def _cmd_two_branch(args):
    data = _read_json_object(args.file, "ring")
    field = _checked("characteristic", field_of_characteristic,
                     _field(data, "characteristic", _INT, 0))
    ring = validate_ring(field, _field(data, "basis"), _field(data, "conductor"),
                         strict=_field(data, "strict", _BOOL, True))
    S2 = value_semigroup(ring)
    payload = S2.to_json()
    lines = [
        "conductor: (%d, %d)   delta: %d" % (ring.conductor + (S2.delta,)),
        "maximal points: %s   I = %d" % (payload["maximals"], S2.I),
        "branch semigroups: %s (delta1 %d), %s (delta2 %d)"
        % (S2.S1, S2.delta1, S2.S2, S2.delta2),
        "symmetric: %s" % payload["symmetric"],
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_reproduce(args):
    if args.name == "list":
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if args.name != "all" and args.name not in SCENARIOS:
        raise ValueError("unknown scenario %r; try 'reproduce list'" % args.name)
    if args.char is not None and args.name not in ("all", "example-2.9"):
        raise ValueError("--char %d: %s has no characteristic to choose; --char applies to "
                         "example-2.9 only" % (args.char, args.name))
    if args.char is not None and args.char not in EXAMPLE_2_9_CHARACTERISTICS:
        raise ValueError("--char %d: example-2.9 has published weights only in characteristics %s"
                         % (args.char, ", ".join(map(str, EXAMPLE_2_9_CHARACTERISTICS))))
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    results = [SCENARIOS[name](args.char) if name == "example-2.9" else SCENARIOS[name]()
               for name in names]
    payload = results[0] if len(results) == 1 else results
    lines = []
    for res in results:
        lines.append("%s: ok" % res["scenario"])
        rep = res.get("report")
        if rep is None and res.get("runs"):
            for run in res["runs"]:
                r = run["report"]
                lines.append("  characteristic %d: weights %s, total %d"
                             % (run["characteristic"],
                                [e["weight"] for e in r["weights"]], r["total"]))
        elif rep is not None:
            lines.append("  orders %s; weights %s; smooth %s; total %d"
                         % (rep["orders"], [e["weight"] for e in rep["weights"]],
                            rep["smooth"], rep["total"]))
    _emit(args, payload, lines)
    return 0


_COMMANDS = {
    "semigroup": _cmd_semigroup,
    "padic": _cmd_padic,
    "orders": _cmd_orders,
    "curve": _cmd_curve,
    "two-branch": _cmd_two_branch,
    "reproduce": _cmd_reproduce,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # print exact integers in full whatever Python's int-to-str digit limit
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except (AssertionError, ArithmeticError) as exc:
        print("internal invariant failure: %s" % exc, file=sys.stderr)
        return INTERNAL_ERROR
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USER_ERROR
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())

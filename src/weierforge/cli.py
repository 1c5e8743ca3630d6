"""Command-line front end.

Subcommands: semigroup, padic, orders, curve, two-branch, reproduce.
Exit codes: 0 success, 2 invalid input, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import json
import sys

from .curve import (
    MonomialSingularity,
    RationalCurve,
    SolutionDimensionMismatch,
    TotalMismatch,
    TwoBranchSingularity,
    UnibranchSingularity,
    _parse_point,
    weight_report,
)
from .exact import field_of_characteristic
from .gallery import SCENARIOS, ScenarioMismatch
from .numsg import NumericalSemigroup
from .padic import (
    classicality_product_test,
    monomial_order_sequence,
    satisfies_p_adic_criterion,
    uses_all_weight,
)
from .valsg2 import NotClosed, NotGorenstein, validate_ring, value_semigroup

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
                      help="characteristic filter where a scenario supports several")
    return parser


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_semigroup(args):
    S = (_read(NumericalSemigroup.from_generators, "--gens", args.gens) if args.gens
         else _read(NumericalSemigroup.from_gaps, "--gaps", args.gaps))
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
    p = args.p
    if args.seq is not None:
        ok = satisfies_p_adic_criterion(args.seq, p)
        payload = {"p": p, "sequence": args.seq, "satisfies_criterion": ok}
        _emit(args, payload, ["sequence %s %s the %d-adic criterion"
                              % (args.seq, "satisfies" if ok else "violates", p)])
        return 0
    gaps = args.gaps
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
    orders = monomial_order_sequence(args.exponents, args.p)
    payload = {"p": args.p, "exponents": args.exponents, "orders": list(orders)}
    _emit(args, payload, ["orders: %s" % (", ".join(map(str, orders)))])
    return 0


def _read_json_object(path, what):
    """The top-level JSON object of a description file.  Non-integer
    numbers are read as exact decimals, not rounded through floats."""
    with open(path) as fh:
        data = json.load(fh, parse_float=decimal.Decimal)
    if not isinstance(data, dict):
        raise ValueError("%s file: expected a JSON object" % what)
    return data


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_point(v):
    return _is_int(v) or isinstance(v, str)


def _list_of(ok, length=None):
    return lambda v: isinstance(v, list) and length in (None, len(v)) and all(map(ok, v))


_is_series = _list_of(lambda c: isinstance(c, (int, decimal.Decimal, str))
                      and not isinstance(c, bool))

# (check, description) of each kind of field a description file holds
_INT = (_is_int, "an integer")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_STR = (lambda v: isinstance(v, str), "a string")
_POINT = (_is_point, "an integer or a string")
_POINT_PAIR = (_list_of(_is_point, 2), "a list of two integers or strings")
_INTS = (_list_of(_is_int), "a list of integers")
_INT_PAIR = (_list_of(_is_int, 2), "a list of two integers")
_OBJECTS = (_list_of(lambda v: isinstance(v, dict)), "a list of objects")
_SERIES_LIST = (_list_of(_is_series), "a list of coefficient lists")
_SERIES_PAIRS = (_list_of(_list_of(_is_series, 2)), "a list of pairs of coefficient lists")
_REQUIRED = object()


def _field(data, path, key, kind, default=_REQUIRED):
    """data[key] after checking its type; errors name the field's path."""
    path += key
    if key not in data:
        if default is _REQUIRED:
            raise ValueError("%s: missing" % path)
        return default
    ok, expected = kind
    if not ok(data[key]):
        raise ValueError("%s: expected %s" % (path, expected))
    return data[key]


def _read(convert, path, value):
    """convert(value); a value it rejects, or one too large to allocate, is
    reported with the field's path."""
    try:
        return convert(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError("%s: invalid value %r (%s)" % (path, value, exc)) from None
    except MemoryError:
        raise ValueError("%s: value %r is too large to allocate" % (path, value)) from None


def _load_point(field, path, value):
    return _read(lambda v: _parse_point(field, v), path, value)


def _load_series(field, path, data):
    return [_read(field, "%s[%d]" % (path, k), str(c)) for k, c in enumerate(data)]


def _load_pairs(field, path, data):
    return [(_load_series(field, "%s[%d][0]" % (path, j), bt),
             _load_series(field, "%s[%d][1]" % (path, j), bu))
            for j, (bt, bu) in enumerate(data)]


@contextlib.contextmanager
def _named(at):
    """Prefix a ValueError raised inside with the path at, minus its final dot."""
    try:
        yield
    except ValueError as exc:
        raise ValueError("%s: %s" % (at[:-1], exc)) from None


def _curve_from_json(data, char_override=None):
    characteristic = _field(data, "", "characteristic", _INT, 0)
    if char_override is not None:
        characteristic = char_override
    field = field_of_characteristic(characteristic)
    singularities = []
    for i, item in enumerate(_field(data, "", "singularities", _OBJECTS)):
        at = "singularities[%d]." % i
        kind = _field(item, at, "kind", _STR)
        if kind == "monomial":
            S = _read(NumericalSemigroup.from_generators, at + "generators",
                      _field(item, at, "generators", _INTS))
            loc = _load_point(field, at + "location", _field(item, at, "location", _POINT))
            with _named(at):
                singularities.append(MonomialSingularity(field, S, loc))
        elif kind == "unibranch":
            loc = _load_point(field, at + "location", _field(item, at, "location", _POINT))
            basis = [_load_series(field, "%sbasis[%d]" % (at, j), b)
                     for j, b in enumerate(_field(item, at, "basis", _SERIES_LIST))]
            conductor = _field(item, at, "conductor", _INT)
            with _named(at):
                singularities.append(UnibranchSingularity(field, basis, conductor, loc))
        elif kind == "two-branch":
            locs = tuple(_load_point(field, "%slocations[%d]" % (at, k), q)
                         for k, q in enumerate(_field(item, at, "locations", _POINT_PAIR)))
            xi1, xi2 = _field(item, at, "conductor", _INT_PAIR)
            pairs = _load_pairs(field, at + "basis", _field(item, at, "basis", _SERIES_PAIRS))
            with _named(at):
                ring = validate_ring(field, pairs, (xi1, xi2))
                singularities.append(TwoBranchSingularity(ring, locs))
        else:
            raise ValueError("%skind: unknown singularity kind %r" % (at, kind))
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
    field = field_of_characteristic(_field(data, "", "characteristic", _INT, 0))
    xi1, xi2 = _field(data, "", "conductor", _INT_PAIR)
    pairs = _load_pairs(field, "basis", _field(data, "", "basis", _SERIES_PAIRS))
    ring = validate_ring(field, pairs, (xi1, xi2),
                         strict=_field(data, "", "strict", _BOOL, True))
    S2 = value_semigroup(ring)
    payload = S2.to_json()
    lines = [
        "conductor: (%d, %d)   delta: %d" % (xi1, xi2, S2.delta),
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
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    results = []
    for name in names:
        if name not in SCENARIOS:
            raise ValueError("unknown scenario %r; try 'reproduce list'" % name)
        runner = SCENARIOS[name]
        if name == "example-2.9" and args.char is not None:
            results.append(runner(args.char))
        else:
            results.append(runner())
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
    except (TotalMismatch, ScenarioMismatch, AssertionError) as exc:
        print("internal invariant failure: %s" % exc, file=sys.stderr)
        return INTERNAL_ERROR
    except (ValueError, KeyError, OSError, ZeroDivisionError, OverflowError,
            NotClosed, NotGorenstein, SolutionDimensionMismatch,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USER_ERROR
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())

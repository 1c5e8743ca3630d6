"""The input boundary: the constructors check and coerce every curve and
ring value, name the argument path at fault, and the command line adds only
the path of the singularity in its file.  Seeded fuzz runs of the loader and
of the options check that every malformed file or option value exits 2 with
one error line naming it; an invariant failure exits 3."""

import contextlib
import copy
import functools
import io
import json
import operator
import random
import re
import time
from pathlib import Path

import pytest

from weierforge import curve, exact, gallery, padic, valsg2
from weierforge.cli import main
from weierforge.curve import MonomialSingularity, TwoBranchSingularity, UnibranchSingularity
from weierforge.exact import GF, INF, QQ
from weierforge.numsg import NumericalSemigroup
from weierforge.valsg2 import ring_from_generators, validate_ring

_TWO_BRANCH = {"kind": "two-branch", "locations": ["0", "1"], "conductor": [2, 2],
               "basis": [[["1", "0"], ["1", "0"]], [["0", "1"], ["0", "1"]]]}

# the fuzz run's starting points: valid curve and ring files
DOCUMENTS = (
    ("curve", {"characteristic": 2, "singularities": [
        {"kind": "monomial", "location": "0", "generators": [3, 4]}]}),
    ("curve", {"characteristic": 0, "singularities": [
        {"kind": "unibranch", "location": "0", "conductor": 6,
         "basis": [["1"], ["0", "0", "0", "1", "0", "1"], ["0", "0", "0", "0", "1"]]}]}),
    ("curve", {"characteristic": 7, "singularities": [
        _TWO_BRANCH, {"kind": "monomial", "location": "inf", "generators": [2, 3]}]}),
    ("two-branch", {"characteristic": 0, "conductor": [2, 2], "strict": True,
                    "basis": _TWO_BRANCH["basis"]}),
)
FAULTY_VALUES = (0, -1, 2.5, "x", "1/0", "1/7", "inf", "1e-999999999", True, None, [], [[1]],
                 {}, 10 ** 30)


def _nodes(value, path=()):
    """(path, value) of every value inside a JSON document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def mutated(rng):
    """(command, JSON text) of one of DOCUMENTS with one seeded fault: a value
    replaced by one of FAULTY_VALUES, dropped from its object or list, or
    wrapped in a list."""
    command, document = rng.choice(DOCUMENTS)
    document = copy.deepcopy(document)
    (*head, key), value = rng.choice(list(_nodes(document)))
    parent = functools.reduce(operator.getitem, head, document)
    action = rng.randrange(3)
    if action == 0:
        parent[key] = copy.deepcopy(rng.choice(FAULTY_VALUES))
    elif action == 1:
        del parent[key]
    else:
        parent[key] = [value]
    return command, json.dumps(document)


def run_file(command, text, path):
    """(exit code, stderr) of the command on a file holding the text."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return code, err.getvalue()


# an error names the path of the value at fault, except the checks of a ring
# file's ring as a whole (the ring is the whole file) and of a curve's
# singular points
_PATH = r"[A-Za-z-]+(\[\d+\])*(\.[A-Za-z-]+(\[\d+\])*)*: "
_WHOLE_DOCUMENT = ("ring does not contain 1", "branch constant terms differ",
                   "dim(normalization/conductor)", "basis is linearly dependent",
                   "basis span is not closed", "delta invariant must be",
                   "a rational Gorenstein curve", "singularity locations must be")
_ERROR_LINE = re.compile("error: (%s|%s).*\n"
                         % (_PATH, "|".join(map(re.escape, _WHOLE_DOCUMENT))))


def test_malformed_files_exit_2_with_one_error_line_naming_a_path(tmp_path):
    rng = random.Random(20)
    start = time.perf_counter()
    codes = []
    for _ in range(400):
        command, text = mutated(rng)
        code, err = run_file(command, text, tmp_path / "input.json")
        assert code in (0, 2), text
        if code == 2:
            assert _ERROR_LINE.fullmatch(err), (text, err)
        codes.append(code)
    assert time.perf_counter() - start < 2.0
    assert 0 in codes and 2 in codes


# the option commands with valid values: a fuzz run gives one option one of
# the values below; CURVE stands for a curve file valid in every characteristic
OPTION_COMMANDS = (
    (["semigroup"], {"--gens": "3,4"}),
    (["semigroup"], {"--gaps": "1,2,5"}),
    (["padic"], {"--p": "2", "--seq": "0,1,4"}),
    (["padic"], {"--p": "2", "--gaps": "1,2,5"}),
    (["orders"], {"--exponents": "0,3,4", "--p": "2"}),
    (["curve", "CURVE"], {"--char": "2"}),
    (["reproduce", "example-2.9"], {"--char": "2"}),
)
INT_OPTIONS = ("--p", "--char")
FAULTY_INTS = (0, 1, -1, 3, 4, 7, 1000003, 10 ** 25 + 13, 10 ** 30)
# no list asks for a large allocation: a semigroup sieve of 10^30 entries
# overflows an index at once, where one of 10^9 entries would be allocated
FAULTY_LISTS = ((), (0,), (-1, 0), (1, 1), (5, 2), (2, 5), (4, 6), (1, 2, 5), (0, 3, 4),
                (10 ** 30,), (3, 10 ** 30 + 1))


def run_options(argv):
    """(exit code, stdout, stderr) of the command line run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_faulty_option_values_exit_2_with_one_error_line_naming_the_option(tmp_path):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"singularities": [
        {"kind": "monomial", "location": "0", "generators": [3, 4]}]}))
    rng = random.Random(27)
    start = time.perf_counter()
    codes = set()
    for _ in range(300):
        command, options = rng.choice(OPTION_COMMANDS)
        option = rng.choice(sorted(options))
        value = (str(rng.choice(FAULTY_INTS)) if option in INT_OPTIONS
                 else ",".join(map(str, rng.choice(FAULTY_LISTS))))
        argv = [str(curve_file) if word == "CURVE" else word for word in command]
        argv += ["%s=%s" % (name, value if name == option else options[name])
                 for name in options]
        code, out, err = run_options(argv)
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert out == "" and re.fullmatch("error: %s[: ].*\n" % option, err), (argv, err)
        else:
            assert err == "", argv
        codes.add((command[0], code))
    assert time.perf_counter() - start < 2.0
    assert codes == {(command, code) for command in ("semigroup", "padic", "orders", "curve",
                                                      "reproduce") for code in (0, 2)}


def _raising(exc):
    def planted(*args, **kwargs):
        raise exc
    return planted


_BRANCH_SERIES = curve._branch_series


def _too_deep(u, roots, terms, p):
    """A branch expansion starting below s^-c, c = terms, which no valid
    curve gives."""
    (v, e, de), series_of_t = _BRANCH_SERIES(u, roots, terms, p)
    return (v - terms - 1, e, de), series_of_t


# each invariant failure planted where the program raises it; the scale
# file is a genus-12 curve over GF(2)
@pytest.mark.parametrize("module, name, replacement, argv", [
    (curve, "_local_order", _raising(curve.TotalMismatch("planted")), ["curve", "SCALE"]),
    (curve, "_find_generator", _raising(curve.GeneratorNotFound("planted")), ["curve", "SCALE"]),
    (valsg2, "adapted_basis", _raising(valsg2.EliminationStuck("planted")),
     ["reproduce", "tacnode"]),
    (gallery, "_expect", _raising(gallery.ScenarioMismatch("planted")), ["reproduce", "node"]),
    (padic, "_p_adically_below", _raising(AssertionError("planted")),
     ["orders", "--exponents", "0,3,4", "--p", "2"]),
    (exact, "_exact_div_mod_p", _raising(ArithmeticError("planted")), ["curve", "SCALE"]),
    (curve, "_branch_series", _too_deep, ["curve", "SCALE"]),
], ids=["TotalMismatch", "GeneratorNotFound", "EliminationStuck", "ScenarioMismatch",
        "AssertionError", "ArithmeticError", "ansatz-truncation"])
def test_invariant_failure_exits_3_with_one_line(monkeypatch, module, name, replacement, argv):
    scale = Path(__file__).parent / "data" / "scale-4-5-at-0-1-gf2.json"
    monkeypatch.setattr(module, name, replacement)
    code, out, err = run_options([str(scale) if word == "SCALE" else word for word in argv])
    assert code == 3 and out == ""
    message = "ansatz expansion known only below" if replacement is _too_deep else "planted"
    assert re.fullmatch("internal invariant failure: %s.*\n" % message, err), err


S34 = NumericalSemigroup.from_generators([3, 4])
BASIS = _TWO_BRANCH["basis"]


# the values of tests/test_cli.py::test_wrong_field_type_exits_2_naming_the_field
# that reach a constructor, passed to it directly: the error starts with
# the path the command line names, less the singularity's; then the values
# the constructors once let through.  Generators are named by the command
# line, which reads them into a NumericalSemigroup.
@pytest.mark.parametrize("build, path", [
    (lambda: MonomialSingularity(QQ, S34, [0]), "location"),
    (lambda: validate_ring(QQ, BASIS, 2), "conductor"),
    (lambda: TwoBranchSingularity(validate_ring(QQ, BASIS, [2, 2]), "0,1"), "locations"),
    (lambda: validate_ring(QQ, [[["1"], 1]], [2, 2]), "basis"),
    (lambda: UnibranchSingularity(QQ, [["1"]], "6", "0"), "conductor"),
    (lambda: UnibranchSingularity(QQ, ["1"], 6, "0"), "basis"),
    (lambda: validate_ring(QQ, 7, [2, 2]), "basis"),
    (lambda: MonomialSingularity(QQ, S34, "x"), "location"),
    (lambda: UnibranchSingularity(QQ, [["1"], ["0", "0", "0", "1/0"]], 6, "0"), "basis[1][3]"),
    (lambda: TwoBranchSingularity(validate_ring(GF(7), BASIS, [2, 2]), ["0", "1/7"]),
     "locations[1]"),
    (lambda: validate_ring(QQ, [[["1", "x"], ["1", "0"]]], [2, 2]), "basis[0][0][1]"),
    # a bool coefficient, in a ring's basis, a unibranch basis and a generator
    (lambda: validate_ring(QQ, [([True], [1])], (1, 1)), "basis[0][0][0]"),
    (lambda: UnibranchSingularity(GF(5), [[1], [0, 0, True]], 2, 0), "basis[1][2]"),
    (lambda: ring_from_generators(QQ, [([0, 1], [0, False])], window=8), "generators[0][1][1]"),
    # a bad coefficient past the conductor
    (lambda: validate_ring(QQ, [(["1", "zz"], ["1"])], (1, 1)), "basis[0][0][1]"),
    (lambda: UnibranchSingularity(QQ, [[1, 0, 0, "1/0"]], 2, 0), "basis[0][3]"),
    # checks on the conductor alone: its sign and its minimality
    (lambda: validate_ring(QQ, BASIS, [0, 1]), "conductor"),
    (lambda: UnibranchSingularity(QQ, [[1]], 0, 0), "conductor"),
    (lambda: validate_ring(QQ, [([1], [1]), ([0, 1], [0, 1]), ([0], [0, 0, 1])], [2, 3]),
     "conductor[1]"),
    (lambda: UnibranchSingularity(QQ, [[1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], 5, 0),
     "conductor"),
    # one uniformizer for two locations once built a one-branch singularity
    (lambda: TwoBranchSingularity(validate_ring(GF(7), BASIS, [2, 2]), (0, 1),
                                  uniformizers=(None,)), "uniformizers"),
])
def test_constructors_name_the_path_of_a_bad_value(build, path):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value).startswith(path + ": ")


def test_inf_spelt_as_text_is_the_point_at_infinity():
    for text in ("inf", "infinity", "oo"):
        assert MonomialSingularity(QQ, S34, text).location is INF
        node = validate_ring(GF(7), [([1], [1])], (1, 1))
        assert TwoBranchSingularity(node, [text, "1/2"]).locations == (INF, GF(7)(4))

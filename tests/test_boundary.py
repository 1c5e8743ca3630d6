"""The input boundary: the constructors check and coerce every curve and
ring value, name the argument path at fault, and the command line adds only
the path of the singularity in its file.  A seeded fuzz run of the loader
checks that every malformed file exits with one error line."""

import contextlib
import copy
import functools
import io
import json
import operator
import random
import re
import time

import pytest

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

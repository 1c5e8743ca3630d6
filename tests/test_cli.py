import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import weierforge
from weierforge import padic
from weierforge.cli import main
from weierforge.numsg import NumericalSemigroup


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSemigroupCommand:
    def test_text(self, capsys):
        assert main(["semigroup", "--gens", "3,4"]) == 0
        out = capsys.readouterr().out
        assert "gaps: 1, 2, 5" in out
        assert "weight: 2" in out
        assert "symmetric: True" in out

    def test_json_roundtrip(self, capsys):
        code, data = run_json(capsys, ["semigroup", "--gens", "3,4", "--format", "json"])
        assert code == 0
        assert data["gaps"] == [1, 2, 5] and data["conductor"] == 6
        # the reported generators regenerate the same semigroup
        code2, data2 = run_json(
            capsys, ["semigroup", "--gens", ",".join(map(str, data["generators"])),
                     "--format", "json"])
        assert data2 == data

    def test_from_gaps(self, capsys):
        code, data = run_json(capsys, ["semigroup", "--gaps", "1,2,5",
                                       "--format", "json"])
        assert code == 0 and data["generators"] == [3, 4]

    def test_user_error_exit(self, capsys):
        assert main(["semigroup", "--gens", "4,6"]) == 2


class TestPadicAndOrders:
    def test_criterion(self, capsys):
        code, data = run_json(capsys, ["padic", "--seq", "0,1,4", "--p", "2",
                                       "--format", "json"])
        assert code == 0 and data["satisfies_criterion"] is True

    def test_criterion_on_a_large_power_of_p(self, capsys):
        start = time.perf_counter()
        code, data = run_json(capsys, ["padic", "--seq", "0,1099511627776", "--p", "2",
                                       "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and data["satisfies_criterion"] is True

    def test_negative_term_exits_2(self, capsys):
        assert main(["padic", "--seq=-1,0", "--p", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: --seq: invalid value [-1, 0] (terms must be nonnegative)\n")

    def test_gap_tests(self, capsys):
        code, data = run_json(capsys, ["padic", "--gaps", "1,2,5", "--p", "2",
                                       "--format", "json"])
        assert code == 0
        assert data["classical_product_test"] is False
        assert data["uses_all_weight"] is True

    def test_orders(self, capsys):
        code, data = run_json(capsys, ["orders", "--exponents", "0,3,4",
                                       "--p", "2", "--format", "json"])
        assert code == 0 and data["orders"] == [0, 1, 4]

    def test_orders_of_a_large_power_of_p(self, capsys):
        start = time.perf_counter()
        code, data = run_json(capsys, ["orders", "--exponents", "0,1099511627776", "--p", "2",
                                       "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and data["orders"] == [0, 1099511627776]

    @pytest.mark.parametrize("p", ["1", "-1"])
    def test_characteristic_below_2_exits_2(self, p, capsys, monkeypatch):
        def enumerated(a, p):
            raise AssertionError("digits taken before p was checked")

        monkeypatch.setattr(padic, "_p_adically_below", enumerated)
        assert main(["orders", "--exponents", "0,1", "--p", p]) == 2
        assert capsys.readouterr().err == (
            f"error: --p: invalid value {p} (characteristic {p} is not prime)\n")

    def test_characteristic_beyond_the_primality_range(self, capsys):
        assert main(["orders", "--exponents", "0,3,4", "--p", str(10 ** 25 + 13)]) == 2
        assert capsys.readouterr().err.startswith("error: --p: invalid value %d (characteristic"
                                                  % (10 ** 25 + 13))


def test_generators_too_large_to_allocate_exit_2_naming_the_field(tmp_path, capsys,
                                                                   monkeypatch):
    # the generator sieve of <a, b> holds (a - 1)(b - 1) + 1 entries
    def exhausted(generators):
        raise MemoryError

    monkeypatch.setattr(NumericalSemigroup, "from_generators", exhausted)
    assert main(["semigroup", "--gens", "100000,100001"]) == 2
    assert capsys.readouterr().err == (
        "error: --gens: value [100000, 100001] is too large to allocate\n")
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"singularities": [
        {"kind": "monomial", "location": "0", "generators": [100000, 100001]}]}))
    assert main(["curve", str(path)]) == 2
    assert "error: singularities[0].generators: value [100000, 100001] is too large" in (
        capsys.readouterr().err)


class TestCurveCommand:
    def test_monomial_file(self, tmp_path, capsys):
        spec = {"characteristic": 2,
                "singularities": [{"kind": "monomial", "location": "0",
                                   "generators": [3, 4]}]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
        assert code == 0
        assert data["orders"] == [0, 1, 4]
        assert data["weights"] == [{"location": "0", "weight": 32}]
        assert data["total"] == 32

    def test_char_override(self, tmp_path, capsys):
        spec = {"characteristic": 2,
                "singularities": [{"kind": "monomial", "location": "0",
                                   "generators": [3, 4]}]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        code, data = run_json(capsys, ["curve", str(path), "--char", "0",
                                       "--format", "json"])
        assert code == 0 and data["weights"][0]["weight"] == 22

    def test_unibranch_file(self, tmp_path, capsys):
        spec = {"characteristic": 0,
                "singularities": [{"kind": "unibranch", "location": "0",
                                   "conductor": 6,
                                   "basis": [["1"], ["0", "0", "0", "1", "0", "1"],
                                             ["0", "0", "0", "0", "1"]]}]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
        assert code == 0
        assert data["weights"][0]["weight"] == 22
        assert data["smooth"] == [{"factor": "t^2 - 6", "multiplicity": 1,
                                   "degree": 2}]

    def test_two_branch_in_curve_file(self, tmp_path, capsys):
        spec = {"characteristic": 0,
                "singularities": [{"kind": "two-branch",
                                   "locations": ["0", "1"],
                                   "conductor": [2, 2],
                                   "basis": [[["1", "0"], ["1", "0"]],
                                             [["0", "1"], ["0", "1"]]]}]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
        assert code == 0
        assert data["weights"] == [{"location": "0/1", "weight": 4}]
        assert data["total"] == 6

    def test_two_branch_scaling_file(self, capsys):
        # the closure of (t^3, u^2), (t^4, u^5) over GF(7), as the CI
        # scaling step runs it
        from weierforge.exact import GF
        from weierforge.valsg2 import ring_from_generators, validate_ring

        path = Path(__file__).parent / "data" / "scale-two-branch-gf7.json"
        (spec,) = json.loads(path.read_text())["singularities"]
        ring = ring_from_generators(GF(7), [([0, 0, 0, 1], [0, 0, 1]),
                                            ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1])], window=24)
        assert ring.conductor == (14, 12) and ring.delta == 13
        assert validate_ring(GF(7), spec["basis"], tuple(spec["conductor"])).to_json() \
            == ring.to_json()
        code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
        assert code == 0
        assert data["genus"] == 13 and data["total"] == data["expected"]

    def test_branch_at_infinity_scaling_file(self, capsys):
        # <3,4> at INF, 0 and 1 over GF(7), as the CI scaling step runs it:
        # the basis is sorted by degree, and INF's pole is read off it
        path = Path(__file__).parent / "data" / "scale-3-4-at-inf-0-1-gf7.json"
        code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
        assert code == 0
        assert data["genus"] == 9 and data["orders"] == [0, 1, 2, 3, 4, 5, 7, 8, 9]
        assert [w["weight"] for w in data["weights"]] == [253, 255, 260]
        assert data["smooth"] == [] and data["total"] == data["expected"] == 768

    def test_branch_at_infinity_scaling_file_over_qq(self, capsys):
        # the same curve over QQ, as the CI scaling step runs it: its Hasse
        # derivatives are reduced without a gcd in characteristic 0
        path = Path(__file__).parent / "data" / "scale-3-4-at-inf-0-1.json"
        code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
        assert code == 0
        assert data["genus"] == 9 and data["orders"] == list(range(9))
        assert [w["weight"] for w in data["weights"]] == [238, 238, 238]
        assert [(f["degree"], f["multiplicity"]) for f in data["smooth"]] == [(6, 1)]
        assert data["total"] == data["expected"] == 720

    def test_missing_file(self, capsys):
        assert main(["curve", "/nonexistent/path.json"]) == 2

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps([{"kind": "monomial", "location": "0",
                                     "generators": [3, 4]}]))
        assert main(["curve", str(path)]) == 2
        assert "curve file: expected a JSON object" in capsys.readouterr().err


class TestTwoBranchCommand:
    def test_ring_file(self, tmp_path, capsys):
        spec = {"characteristic": 0, "conductor": [2, 2],
                "basis": [[["1", "0"], ["1", "0"]], [["0", "1"], ["0", "1"]]]}
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(spec))
        code, data = run_json(capsys, ["two-branch", str(path), "--format", "json"])
        assert code == 0
        assert data["maximals"] == [[0, 0], [1, 1]]
        assert data["I"] == 2 and data["symmetric"] is True

    def test_invalid_ring(self, tmp_path, capsys):
        spec = {"characteristic": 0, "conductor": [2, 2],
                "basis": [[["1", "0"], ["1", "0"]]]}
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(spec))
        assert main(["two-branch", str(path)]) == 2

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps([[2, 2]]))
        assert main(["two-branch", str(path)]) == 2
        assert "ring file: expected a JSON object" in capsys.readouterr().err


# files json.load cannot read: nested past the recursion limit, at the top
# level or inside "singularities", empty, and not UTF-8
_UNREADABLE = {"deep": b"[" * 100000, "deep-singularities": b'{"singularities": ' + b"[" * 100000,
               "empty": b"", "not-utf-8": b"\xff{}"}


@pytest.mark.parametrize("command", ["curve", "two-branch"])
@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_an_unreadable_file_exits_2_naming_it(tmp_path, capsys, command, name):
    path = tmp_path / (name + ".json")
    path.write_bytes(_UNREADABLE[name])
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path) and err.count("\n") == 1, err


_TWO_BRANCH = {"kind": "two-branch", "locations": ["0", "1"], "conductor": [2, 2],
               "basis": [[["1", "0"], ["1", "0"]], [["0", "1"], ["0", "1"]]]}
_MONOMIAL = {"kind": "monomial", "location": "0", "generators": [3, 4]}


@pytest.mark.parametrize("command, spec, field", [
    ("curve", {"singularities": 5}, "singularities"),
    ("curve", {"singularities": [5]}, "singularities"),
    ("curve", {"characteristic": "2", "singularities": [_MONOMIAL]}, "characteristic"),
    ("curve", {"singularities": [{}]}, "singularities[0].kind"),
    ("curve", {"singularities": [dict(_MONOMIAL, generators="3,4")]},
     "singularities[0].generators"),
    ("curve", {"singularities": [dict(_MONOMIAL, location=[0])]},
     "singularities[0].location"),
    ("curve", {"singularities": [_MONOMIAL, dict(_TWO_BRANCH, conductor=2)]},
     "singularities[1].conductor"),
    ("curve", {"singularities": [dict(_TWO_BRANCH, locations="0,1")]},
     "singularities[0].locations"),
    ("curve", {"singularities": [dict(_TWO_BRANCH, basis=[[["1"], 1]])]},
     "singularities[0].basis"),
    ("curve", {"singularities": [{"kind": "unibranch", "location": "0", "conductor": "6",
                                  "basis": [["1"]]}]}, "singularities[0].conductor"),
    ("curve", {"singularities": [{"kind": "unibranch", "location": "0", "conductor": 6,
                                  "basis": ["1"]}]}, "singularities[0].basis"),
    ("curve", {"singularities": [{"kind": "cusp"}]}, "singularities[0].kind"),
    ("two-branch", {"conductor": [2, 2], "basis": 7}, "basis"),
    ("two-branch", {"conductor": 2, "basis": _TWO_BRANCH["basis"]}, "conductor"),
    ("two-branch", {"basis": _TWO_BRANCH["basis"]}, "conductor"),
    ("two-branch", {"conductor": [2, 2], "basis": _TWO_BRANCH["basis"], "strict": "no"},
     "strict"),
    ("curve", {"singularities": [dict(_MONOMIAL, location="x")]},
     "singularities[0].location"),
    ("curve", {"singularities": [{"kind": "unibranch", "location": "0", "conductor": 6,
                                  "basis": [["1"], ["0", "0", "0", "1/0"]]}]},
     "singularities[0].basis[1][3]"),
    ("curve", {"characteristic": 7, "singularities": [dict(_TWO_BRANCH, locations=["0", "1/7"])]},
     "singularities[0].locations[1]"),
    ("two-branch", {"conductor": [2, 2], "basis": [[["1", "x"], ["1", "0"]]]},
     "basis[0][0][1]"),
    ("curve", {"singularities": [dict(_MONOMIAL, generators=[2, 10 ** 30 + 1])]},
     "singularities[0].generators"),
    ("semigroup", ["--gens", "2,%d" % (10 ** 30 + 1)], "--gens"),
])
def test_wrong_field_type_exits_2_naming_the_field(tmp_path, capsys, command, spec, field):
    if isinstance(spec, list):
        argv = [command] + spec
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(spec))
        argv = [command, str(path)]
    assert main(argv) == 2
    assert "error: %s: " % field in capsys.readouterr().err


def _unibranch_with(characteristic, value, location='"0"'):
    """A curve file whose basis series t^3 + c t^5 has the coefficient c
    and the location written as the given JSON texts."""
    return ('{"characteristic": %d, "singularities": [{"kind": "unibranch", '
            '"location": %s, "conductor": 6, "basis": [[1], [0, 0, 0, 1, 0, %s], '
            '[0, 0, 0, 0, 1]]}]}' % (characteristic, location, value))


@pytest.mark.parametrize("text, c", [
    ("0.10000000000000000001", Fraction(10 ** 19 + 1, 10 ** 20)),
    ("1e-400", Fraction(1, 10 ** 400)),
])
def test_json_numbers_reach_the_field_exactly(tmp_path, capsys, text, c):
    # the smooth Weierstrass points of t^3 + c t^5 are the roots of t^2 - 6/c
    path = tmp_path / "curve.json"
    path.write_text(_unibranch_with(0, text))
    code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
    assert code == 0
    assert data["smooth"] == [{"factor": "t^2 - %s" % (6 / c), "multiplicity": 1,
                               "degree": 2}]


def test_json_number_outside_the_prime_field_exits_2(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(_unibranch_with(5, "1e-400"))
    assert main(["curve", str(path)]) == 2
    assert "error: singularities[0].basis[1][5]: " in capsys.readouterr().err


def test_exact_integers_past_the_str_digit_limit_print_in_full(tmp_path, capsys):
    # the smooth points of t^3 + 10^-8000 t^5 are the roots of t^2 - 6*10^8000,
    # a constant with more digits than Python converts to text by default
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "curve.json"
    path.write_text(_unibranch_with(0, '"1e-8000"'))
    code, data = run_json(capsys, ["curve", str(path), "--format", "json"])
    assert code == 0 and data["total"] == 24
    assert data["smooth"] == [{"factor": "t^2 - 6" + "0" * 8000, "multiplicity": 1,
                               "degree": 2}]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("characteristic, value, location, field", [
    (0, "1e-999999999", '"0"', "singularities[0].basis[1][5]"),
    (5, '"1E+999999999"', '"0"', "singularities[0].basis[1][5]"),
    (0, "1", '"1e-999999999"', "singularities[0].location"),
])
def test_decimal_exponent_past_the_bound_exits_2_at_once(tmp_path, capsys, characteristic,
                                                          value, location, field):
    path = tmp_path / "curve.json"
    path.write_text(_unibranch_with(characteristic, value, location))
    start = time.perf_counter()
    assert main(["curve", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "error: %s: " % field in err and "exponent" in err


@pytest.mark.parametrize("singularity, message", [
    ({"kind": "unibranch", "location": "0", "conductor": 10 ** 30, "basis": [["1"]]},
     "value semigroup is not symmetric: the ring is not Gorenstein"),
    ({"kind": "two-branch", "locations": ["0", "1"], "conductor": [10 ** 30, 10 ** 30],
      "basis": [[["1"], ["1"]]]},
     "dim(normalization/conductor) = %d differs from 2*delta = %d"
     % (2 * 10 ** 30, 4 * 10 ** 30 - 2)),
], ids=["unibranch", "two-branch"])
def test_conductor_too_long_for_the_basis_exits_2_at_once(tmp_path, capsys, singularity,
                                                          message):
    # c <= 2 delta for every local ring, with equality exactly when it is
    # Gorenstein: refused before a window of the conductor's length is built
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"singularities": [singularity]}))
    start = time.perf_counter()
    assert main(["curve", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: singularities[0]: %s\n" % message


def test_non_strict_conductor_past_the_basis_exits_2_at_once(tmp_path, capsys):
    # a ring that is not Gorenstein has no bound on its conductor in terms
    # of its basis: one spelling out fewer coefficients than the conductor
    # is refused before a window of the conductor's length is built
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"strict": False, "basis": [[["1"], ["1"]]],
                                "conductor": [10 ** 30, 1]}))
    start = time.perf_counter()
    assert main(["two-branch", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: conductor: past every coefficient given on its branch; "
        "extend the basis series to it\n")
    # spelt out to a conductor of 3, the same ring is accepted
    path.write_text(json.dumps({"strict": False, "basis": [[["1", "0", "0"], ["1"]]],
                                "conductor": [3, 1]}))
    assert main(["two-branch", str(path)]) == 0
    assert "delta: 3" in capsys.readouterr().out


class TestReproduce:
    def test_example_2_1(self, capsys):
        assert main(["reproduce", "example-2.1"]) == 0
        out = capsys.readouterr().out
        assert "32" in out and "[0, 1, 4]" in out

    def test_example_3_6_json(self, capsys):
        code, data = run_json(capsys, ["reproduce", "example-3.6", "--format", "json"])
        assert code == 0
        rep = data["report"]
        assert [w["weight"] for w in rep["weights"]] == [103, 103]
        assert sum(e["degree"] * e["multiplicity"] for e in rep["smooth"]) == 4
        assert rep["total"] == 210

    def test_example_2_9_char_filter(self, capsys):
        code, data = run_json(capsys, ["reproduce", "example-2.9", "--char", "3",
                                       "--format", "json"])
        assert code == 0
        assert data["runs"][0]["report"]["weights"][0]["weight"] == 24

    @pytest.mark.parametrize("argv", [["example-2.9", "--char", "5"], ["all", "--char", "7"]])
    def test_char_without_published_weights_exits_2(self, argv, capsys):
        # for p = 5, 7, 11, 13 the curve has weight 22, not the published 24:
        # a characteristic the scenario does not cover is a usage error
        assert main(["reproduce"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --char ") and err.count("\n") == 1
        assert "0, 2, 3" in err

    @pytest.mark.parametrize("argv", [["example-2.1", "--char", "5"], ["node", "--char", "7"],
                                      ["tacnode", "--char", "0"]])
    def test_char_on_another_scenario_exits_2(self, argv, capsys):
        # only example-2.9 runs in a chosen characteristic: any other
        # scenario would print its fixed-characteristic output unchanged
        assert main(["reproduce"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --char ") and err.count("\n") == 1
        assert argv[0] in err

    def test_all_json_matches_the_committed_output(self, capsys):
        # tests/data/reproduce_all.json pins the gallery output byte for byte
        expected = (Path(__file__).parent / "data" / "reproduce_all.json").read_bytes()
        assert main(["reproduce", "all", "--format", "json"]) == 0
        assert capsys.readouterr().out.encode() == expected

    def test_unknown_scenario(self, capsys):
        assert main(["reproduce", "example-9.9"]) == 2

    def test_list(self, capsys):
        assert main(["reproduce", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("example-2.1", "example-2.9", "example-3.6", "node",
                     "tacnode", "example-4.10", "semigroup-4-6-11",
                     "semigroup-3-5", "semigroup-4-5"):
            assert name in out


def test_python_dash_m_runs_the_cli():
    src = str(Path(weierforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "weierforge", "semigroup", "--gens", "3,4", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["gaps"] == [1, 2, 5]
    bad = subprocess.run([sys.executable, "-m", "weierforge", "semigroup", "--gens", "4,6"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == 2


@pytest.mark.parametrize("singularity, message", [
    ({"kind": "monomial", "generators": [1], "location": 0},
     ": semigroup of a singular point must have a gap"),
    ({"kind": "unibranch", "conductor": 0, "basis": [[1]], "location": 0},
     ".conductor: exponent must be positive"),
    ({"kind": "unibranch", "conductor": 4, "basis": [], "location": 0},
     ": ring does not contain 1"),
    ({"kind": "two-branch", "conductor": [1, 1], "basis": [], "locations": [0, 1]},
     ": ring does not contain 1"),
], ids=["monomial-without-gap", "unibranch-conductor-0", "unibranch-empty-basis",
        "two-branch-empty-basis"])
def test_constructor_errors_name_the_singularity(tmp_path, capsys, singularity, message):
    # the second singularity is the bad one: its index is named
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"singularities": [
        {"kind": "monomial", "generators": [2, 3], "location": 5}, singularity]}))
    assert main(["curve", str(path)]) == 2
    assert capsys.readouterr().err == "error: singularities[1]%s\n" % message


def test_repeated_calls_reuse_one_parser(capsys, monkeypatch):
    # main builds its argparse parser once per process; help text, error
    # messages and exit codes 0, 2 and 3 stay the same from call to call
    from weierforge import cli, gallery

    def broken():
        raise gallery.ScenarioMismatch("planted")

    monkeypatch.setitem(cli.SCENARIOS, "broken", broken)
    assert cli.build_parser() is cli.build_parser()
    fresh_help = cli.build_parser.__wrapped__().format_help()
    seen = []
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == fresh_help
        assert main(["semigroup", "--gens", "3,4", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["gaps"] == [1, 2, 5]
        with pytest.raises(SystemExit) as exc:
            main(["semigroup", "--gens", "3,x"])
        assert exc.value.code == 2
        usage_error = capsys.readouterr().err
        assert main(["semigroup", "--gens", "4,6"]) == 2
        value_error = capsys.readouterr().err
        assert main(["reproduce", "broken"]) == 3
        internal = capsys.readouterr().err
        seen.append((usage_error, value_error, internal))
    assert "expected a comma-separated integer list" in seen[0][0]
    assert seen[0][2] == "internal invariant failure: planted\n"
    assert seen == [seen[0]] * 3

"""Tests of the benchmark itself: seeded inputs, wrapper installation,
self-time arithmetic, per-item checks and the refusal to run without the
program.  They use the weierforge already imported (``src`` on the path)
and never re-import it, so other test modules keep their module objects.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import REJECT, REPORT, WORKLOADS, CheckFailed, charp_inputs, rings_inputs

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def wf():
    return run.program()


def test_rings_inputs_repeat_for_a_seed(tmp_path):
    assert rings_inputs(None, 7, tmp_path) == rings_inputs(None, 7, tmp_path)
    assert rings_inputs(None, 7, tmp_path) != rings_inputs(None, 8, tmp_path)


def test_charp_inputs_repeat_for_a_seed(tmp_path):
    first = charp_inputs(None, 7, tmp_path / "a")
    again = charp_inputs(None, 7, tmp_path / "b")
    assert [i.data[1] for i in first] == [i.data[1] for i in again]
    assert [Path(i.data[0]).read_text() for i in first] == \
        [Path(i.data[0]).read_text() for i in again]
    assert [i.data[1] for i in first] != [i.data[1] for i in charp_inputs(None, 8, tmp_path)]
    for item in first:
        data = item.data[1]
        assert is_prime(data["characteristic"])
        locations = [s["location"] for s in data["singularities"]]
        assert len(set(locations)) == len(locations)


def is_prime(p):
    return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _bindings():
    """Identity of every attribute of every weierforge module, plus the
    dictionaries of the classes whose methods are wrapped."""
    out = {}
    for module in spans._program_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
    for _name, module, path in spans.TARGETS:
        *classes, _attr = path.split(".")
        if classes:
            cls = getattr(sys.modules["weierforge." + module], classes[0])
            for key, value in vars(cls).items():
                out[(cls.__qualname__, key)] = value
    return out


def test_wrappers_cover_every_binding_and_restore_every_original(wf):
    before = _bindings()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        during = _bindings()
        # names imported into other modules are wrapped there too
        assert wf.curve.wronskian is wf.wronski.wronskian is not before[("weierforge.wronski", "wronskian")]
        assert wf.valsg2.scalar_echelon is wf.exact.scalar_echelon
        assert wf.padic.scalar_echelon is wf.exact.scalar_echelon
        S = wf.numsg.NumericalSemigroup.from_generators([3, 4])
        F = wf.exact.GF(2)
        wf.curve.weight_report(wf.curve.RationalCurve(F, [wf.curve.MonomialSingularity(F, S, F(0))]))
    assert _bindings().items() == before.items()
    changed = {k for k in before if during[k] is not before[k]}
    for name, module, path in spans.TARGETS:
        *classes, attr = path.split(".")
        owner = classes[0] if classes else "weierforge." + module
        assert (owner, attr) in changed, name
    names = {s[0] for s in tracer.spans}
    assert {"curve.weight_report", "wronski.order_sequence", "exact.hasse_list",
            "curve.dualizing_basis"} <= names
    by_index = tracer.spans
    assert all(s[3] is None or by_index[s[3]][1] <= s[1] <= s[2] <= by_index[s[3]][2]
               for s in by_index)


def test_self_time_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, None, "0:0"],
        ["a", 1.0, 4.0, 0, "0:0"],
        ["c", 2.0, 3.0, 1, "0:0"],
        ["b", 5.0, 6.0, 0, "0:0"],
        ["a", 7.0, 9.0, 0, "0:0"],
        ["a", 7.5, 8.0, 4, "0:0"],   # recursive call of a
        ["other", 20.0, 21.0, None, "0:1"],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 1.0, 1.5, 0.5, 1.0]
    calls, self_s, total_s, child_calls = spans.layer_totals(tree)
    assert calls["a"] == 3 and self_s["a"] == 4.0
    assert total_s["a"] == 5.0          # the recursive call is counted once
    assert total_s["root"] == 10.0
    assert child_calls[("root", "a")] == 2 and child_calls[("a", "a")] == 1
    assert spans.top_level_seconds(tree) == 11.0


def test_self_time_clips_children_to_the_parent():
    tree = [["p", 0.0, 4.0, None, 0], ["x", 1.0, 3.0, 0, 0], ["y", 2.0, 6.0, 0, 0]]
    assert spans.self_times(tree)[0] == 1.0


def _smoke(wf, name, items):
    workload = WORKLOADS[name]
    first = run.run_pass(workload, wf, items)
    again = run.run_pass(workload, wf, items)
    assert first.failures == []
    assert run.digest(first.outcomes) == run.digest(again.outcomes)
    return first


def test_gallery_smoke(wf, tmp_path):
    items = [i for i in WORKLOADS["gallery"].inputs(wf, 1, tmp_path)
             if i.key in ("example-2.1", "node", "tacnode")]
    assert len(items) == 3
    _smoke(wf, "gallery", items)


def test_rings_smoke_with_a_rejection(wf, tmp_path):
    items = [i for i in rings_inputs(wf, 3, tmp_path)
             if i.key in ("1,2|1,2", "3,4|3,4", "2,3|3,4", "3,4|2,3")]
    outcomes = dict(_smoke(wf, "rings", items).outcomes)
    assert any("rejected" in o for o in outcomes.values())
    assert outcomes["1,2|1,2"]["report"]["total"] > 0


def _rings_item(wf, outcome):
    return next(i for i in rings_inputs(wf, 3, None) if i.data[2].outcome == outcome)


def test_rings_check_catches_an_unexpected_outcome(wf):
    item = _rings_item(wf, REJECT)
    x, y, shape = item.data
    with pytest.raises(CheckFailed, match="expected report"):
        WORKLOADS["rings"].run(wf, item._replace(data=(x, y, shape._replace(outcome=REPORT))))


def test_rings_check_catches_a_wrong_delta(wf):
    item = next(i for i in rings_inputs(wf, 3, None) if i.key.startswith("2,5|2,3")
                or i.key.startswith("2,3|2,5"))
    x, y, shape = item.data
    with pytest.raises(CheckFailed, match="delta"):
        WORKLOADS["rings"].run(wf, item._replace(data=(x, y, shape._replace(I=shape.I + 1))))


def test_rings_only_documented_rejections_are_outcomes(wf, monkeypatch):
    def inconsistent(*args, **kwargs):
        raise ValueError("basis is linearly dependent modulo the conductor")

    monkeypatch.setattr(wf.valsg2, "ring_from_generators", inconsistent)
    with pytest.raises(ValueError, match="linearly dependent"):
        WORKLOADS["rings"].run(wf, _rings_item(wf, REJECT))


def test_charp_smoke(wf, tmp_path):
    items = charp_inputs(wf, 3, tmp_path)[:6]
    _smoke(wf, "charp", items)


def test_charp_check_catches_a_wrong_closed_form(wf, tmp_path):
    item = charp_inputs(wf, 3, tmp_path)[0]     # single monomial singularity
    path, data = item.data
    data = json.loads(json.dumps(data))
    data["singularities"][0]["generators"] = [2, 7]   # file still holds <3,4>
    with pytest.raises(Exception, match="closed form|orders"):
        WORKLOADS["charp"].run(wf, item._replace(data=(path, data)))


def test_traced_pass_reports_every_per_layer_metric(wf, tmp_path):
    items = charp_inputs(wf, 3, tmp_path)[:3]
    tracer = spans.Tracer()
    untraced, traced = run.run_pairs(WORKLOADS["charp"], wf, items, 0, tracer)
    assert len(untraced) == len(traced) == 1
    values = run.per_layer(untraced, traced, tracer, items)
    assert values.keys() == run.per_layer_units().keys()
    assert values["exact.rational_roots.calls"] > 0
    assert values["wronski.wronskian.max_coeff_bits"] > 0
    assert 0 < values["trace.coverage"] <= 1


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(run.per_layer_units())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "charp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "weierforge" in proc.stderr

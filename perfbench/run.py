"""weierforge benchmark: one seeded, single-process, closed-loop workload.

    python3 perfbench/run.py --workload gallery|rings|charp --seed N \
        --seconds S --trace 0|1

Each item starts when the previous one returns; there are no threads.  The
run imports weierforge from ``src/`` next to this directory, generates the
workload's inputs from the seed, then repeats full passes over the items
until the next pass would end after ``--seconds``.  Every item's output is
checked; a failed check, a nonzero CLI exit or an unexpected exception
fails the item, and the run exits 1.

Before each item the run times a fixed reference loop.  On a shared machine
other processes slow everything, by up to twice for minutes at a time; the
reference loops on either side of an item (and those between the
set-ups) measure by how much, and each time is divided by that slowdown,
so times read as seconds on the unloaded machine.
The lines above the last one give the unscaled wall times.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (median of nine imports of weierforge plus input generation),
``pass_s`` (median over passes of the summed item times), ``item_p50_s``
(median over items of each item's median time) and ``peak_rss_mb``.  With
``--trace 1`` untraced passes alternate with passes that record spans around
the program's public functions (``spans.py``); the last line reports the
per-layer metrics and the spans are written to ``perfbench/out/``.  A layer
that does not run on the workload reports 0 calls and 0 s, and
``gallery.<scenario>.s`` is 0 where the scenario is not an item.  The
lines above the last one also give the fail ratio, p90 where it has ten
samples beyond it, and the digest of the outputs, which repeats across runs
of one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ("cli", "curve", "exact", "gallery", "numsg", "padic", "valsg2", "wronski")
SETUP_REPEATS = 9

# About the mean time of reference_loop on the machine the first ledger entry
# was taken on (Intel Xeon, 2 CPUs, Python 3.11.7) while no other process
# slowed it.  Times are reported scaled to that speed; see slowdown().
REFERENCE_S = 0.0125

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "item_p50_s": "s", "peak_rss_mb": "MB"}

# per-scenario item times are reported under these names on every workload
GALLERY_SCENARIOS = ("example-2.1", "example-2.9", "example-3.6", "example-4.10", "node",
                     "semigroup-3-5", "semigroup-4-5", "semigroup-4-6-11", "tacnode")


def per_layer_units():
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name, _module, _path in spans.TARGETS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        units[name + ".total_s"] = "s"
    units["wronski.wronskian.max_degree"] = "count"
    units["wronski.wronskian.max_coeff_bits"] = "bits"
    units["valsg2.ring_from_generators.echelon_calls"] = "count"
    for scenario in GALLERY_SCENARIOS:
        units["gallery.%s.s" % scenario] = "s"
    units["trace.overhead"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


class ProgramMissing(Exception):
    """weierforge could not be imported from the checkout's src/."""


def program():
    """The program's modules by name, as currently imported."""
    return SimpleNamespace(**{m: importlib.import_module("%s.%s" % (spans.PACKAGE, m))
                              for m in MODULES})


def load_program():
    """Import weierforge afresh from SRC; return its modules by name."""
    for name in [n for n in sys.modules if n == spans.PACKAGE or n.startswith(spans.PACKAGE + ".")]:
        del sys.modules[name]
    try:
        wf = program()
    except ImportError as exc:
        raise ProgramMissing("cannot import %s from %s: %s" % (spans.PACKAGE, SRC, exc))
    origin = Path(sys.modules[spans.PACKAGE].__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing("%s was imported from %s, not from %s" % (spans.PACKAGE, origin, SRC))
    return wf


def reference_loop():
    """Fixed exact-arithmetic work that no program change can alter."""
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1) * 3
    return total


class Pass(NamedTuple):
    seconds: float
    item_seconds: list
    reference_seconds: list
    outcomes: list
    failures: list


def run_pass(workload, wf, items, tracer=None, label=0):
    """Run every item once, with a timed reference loop before each item
    and after the last; an item fails on any exception, checks included."""
    item_seconds, reference_seconds, outcomes, failures = [], [], [], []
    start = perf_counter()
    for index, item in enumerate(items):
        reference_seconds.append(timed_reference())
        if tracer is not None:
            tracer.item = "%s:%d" % (label, index)
        t0 = perf_counter()
        try:
            outcome = workload.run(wf, item)
        except Exception as exc:  # the item fails; the run goes on and reports it
            traceback.print_exc(file=sys.stderr)
            outcome = {"failed": "%s: %s" % (type(exc).__name__, exc)}
            failures.append(item.key)
        item_seconds.append(perf_counter() - t0)
        outcomes.append([item.key, outcome])
    reference_seconds.append(timed_reference())
    return Pass(perf_counter() - start, item_seconds, reference_seconds, outcomes, failures)


def run_passes(workload, wf, items, seconds):
    """Full passes until the next one, as long as the last, would overrun."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start + passes[-1].seconds <= seconds:
        passes.append(run_pass(workload, wf, items))
    return passes


def run_pairs(workload, wf, items, seconds, tracer):
    """Untraced and traced passes in pairs, until the next pair, as long as
    the last, would overrun.  Every other pair runs its traced pass first,
    so that a drift in machine speed does not favour either kind."""
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start + untraced[-1].seconds + traced[-1].seconds \
            <= seconds:
        pair = {}
        for kind in (("untraced", "traced") if len(traced) % 2 == 0
                     else ("traced", "untraced")):
            if kind == "traced":
                with spans.installed(tracer):
                    pair[kind] = run_pass(workload, wf, items, tracer, len(traced))
            else:
                pair[kind] = run_pass(workload, wf, items)
        untraced.append(pair["untraced"])
        traced.append(pair["traced"])
    return untraced, traced


def digest(outcomes):
    return hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()[:16]


def timed_reference():
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def setup(workload_name, seed):
    """SETUP_REPEATS times, each after one reference loop: import the
    program and generate the inputs.  Returns the program, the inputs, the
    median set-up time and the slowdown while setting up."""
    times, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(timed_reference())
        start = perf_counter()
        wf = load_program()
        items = WORKLOADS[workload_name].inputs(wf, seed, OUT)
        times.append(perf_counter() - start)
    return wf, items, statistics.median(times), statistics.fmean(references) / REFERENCE_S


def slowdown(passes):
    """How much slower the machine ran than when the reference loop took
    REFERENCE_S: the mean of the passes' reference loops over REFERENCE_S."""
    return statistics.fmean(r for p in passes for r in p.reference_seconds) / REFERENCE_S


def scaled_items(p):
    """A pass's item times, each divided by the slowdown measured by the
    reference loops just before and just after it."""
    refs = p.reference_seconds
    return [t * 2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i, t in enumerate(p.item_seconds)]


def item_medians(passes):
    """Each item's median scaled time over the passes.  The median item of
    these is the item latency p50: pooling the samples instead lets noise
    reorder items of similar cost, and the pooled median jumps between them."""
    return [statistics.median(times) for times in zip(*(scaled_items(p) for p in passes))]


def end_to_end(passes, setup_s, setup_slowdown):
    return {
        "setup_s": setup_s / setup_slowdown,
        "pass_s": statistics.median(sum(scaled_items(p)) for p in passes),
        "item_p50_s": statistics.median(item_medians(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def summary_lines(passes, setup_s):
    """Wall times as measured, before scaling by the slowdown."""
    samples = [s for p in passes for s in p.item_seconds]
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    beyond = sum(1 for s in samples if s > p90)
    return [
        "slowdown      %.4f (reference loop mean / %.4f s; times below are unscaled)"
        % (slowdown(passes), REFERENCE_S),
        "setup_s       %.6f s (median of %d set-ups)" % (setup_s, SETUP_REPEATS),
        "pass_s        %.6f s (median of %d passes)"
        % (statistics.median(sum(p.item_seconds) for p in passes), len(passes)),
        "item_p50_s    %.6f s (%d samples)" % (statistics.median(samples), len(samples)),
        ("item_p90_s    %.6f s (%d samples, %d beyond)" % (p90, len(samples), beyond)
         if beyond >= 10 else
         "item_p90_s    not reported: %d samples, %d beyond p90" % (len(samples), beyond)),
    ]


def per_layer(untraced, traced, tracer, items):
    """Per-layer metrics of the traced passes, per pass; times are scaled
    by the slowdown measured during the traced passes.  The overhead is the
    median over pairs of traced over untraced pass time, so it is near 1
    when tracing costs little and may read below 1 from noise alone."""
    scale = slowdown(traced)
    calls, self_s, total_s, child_calls = spans.layer_totals(tracer.spans)
    n = len(traced)
    values = {}
    for name, _module, _path in spans.TARGETS:
        values[name + ".calls"] = calls[name] / n
        values[name + ".self_s"] = self_s[name] / n / scale
        values[name + ".total_s"] = total_s[name] / n / scale
    for key in ("max_degree", "max_coeff_bits"):
        metric = "wronski.wronskian." + key
        values[metric] = tracer.maxima.get(metric, 0)
    values["valsg2.ring_from_generators.echelon_calls"] = child_calls[
        ("valsg2.ring_from_generators", "exact.scalar_echelon")] / n
    scenario_s = dict(zip((item.key for item in items), item_medians(untraced)))
    for scenario in GALLERY_SCENARIOS:
        values["gallery.%s.s" % scenario] = scenario_s.get(scenario, 0.0)
    values["trace.overhead"] = statistics.median(
        sum(scaled_items(t)) / sum(scaled_items(u)) for u, t in zip(untraced, traced))
    values["trace.coverage"] = (spans.top_level_seconds(tracer.spans)
                                / sum(sum(p.item_seconds) for p in traced))
    return values


def write_spans(tracer, workload_name, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("spans-%s-%d.json" % (workload_name, seed))
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "item"],
                                "spans": tracer.spans}))
    return path


def run(workload_name, seed, seconds, trace):
    """Run one workload; return (result object, human-readable lines)."""
    workload = WORKLOADS[workload_name]
    wf, items, setup_s, setup_slowdown = setup(workload_name, seed)
    lines = []
    if trace:
        tracer = spans.Tracer()
        untraced, traced = run_pairs(workload, wf, items, seconds, tracer)
        passes = untraced + traced
        values = per_layer(untraced, traced, tracer, items)
        units = per_layer_units()
        lines.append("spans written to %s" % write_spans(tracer, workload_name, seed))
        for name in sorted((n for n in units if n.endswith(".self_s")),
                           key=lambda n: -values[n])[:8]:
            lines.append("%-45s %.6f s per pass" % (name, values[name]))
        idle = [name for name, _module, _path in spans.TARGETS if not values[name + ".calls"]]
        lines.append("not run on this workload (0 calls, 0 s): %s" % (" ".join(idle) or "-"))
    else:
        passes = run_passes(workload, wf, items, seconds)
        values = end_to_end(passes, setup_s, setup_slowdown)
        units = END_TO_END_UNITS
    attempted = sum(len(p.item_seconds) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    digests = {digest(p.outcomes) for p in passes}
    lines[:0] = [
        "workload %s, seed %d: %d passes of %d items, tracing %s"
        % (workload_name, seed, len(passes), len(items), "on" if trace else "off"),
        *summary_lines(untraced if trace else passes, setup_s),
        "fail_ratio    %d/%d = %.4f" % (failed, attempted, failed / attempted),
        "digest        %s" % " ".join(sorted(digests)),
    ]
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        lines.append("outputs differ between passes of the same inputs")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

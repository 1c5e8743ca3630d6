"""Run the benchmark over fixed seeds, twice, and summarise; optionally
append the summary to the ledger.

    python3 perfbench/collect.py [--ledger perfbench/ledger.jsonl --label NAME]

Every workload of ``BENCHMARK.json`` runs once per seed in SEEDS with
tracing off and ``run_seconds`` per run, one run at a time; then the whole
set is run again.  For each set this prints each end-to-end metric's
median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(n=4)`` gives the quartiles), and for the second set
how far each median moved from the first set's, next to the metric's bound.
Output digests must repeat between the sets.  With ``--ledger`` it also
makes one traced run per workload, checks that its digest repeats the
untraced runs' of the same seed, and appends one JSON line holding all of
it to the ledger.  Ledger entries are only ever appended.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = tuple(range(1, 11))
SETS = 2


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (%s seed %d, exit %d):\n%s%s"
                         % (workload, seed, proc.returncode, proc.stdout, proc.stderr))
    digest = next((line.split()[1] for line in lines if line.startswith("digest")), None)
    return json.loads(lines[-1]), digest


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_set(workload, seconds, bounds, first=None):
    """One run per seed; the metrics' summaries and the digests by seed.
    With ``first`` (the summaries of an earlier set) also print how far
    each median moved from it."""
    values, digests = {}, {}
    for seed in SEEDS:
        result, digest = run_once(workload, seed, seconds, 0)
        digests[seed] = digest
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("%s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
    summary = {n: summarise(v) for n, v in values.items()}
    for name, s in summary.items():
        moved = ("" if first is None else "  moved %+.3f"
                 % (s["median"] / first[name]["median"] - 1))
        print("%-8s %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.3f%s  (bound %s)"
              % (workload, name, s["median"], s["q1"], s["q3"], s["spread"], moved,
                 bounds[name]), flush=True)
    return summary, digests


def main(argv=None):
    settings = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ledger", type=Path)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    if args.ledger and not args.label:
        parser.error("--ledger needs --label")
    seconds = settings["run_seconds"]
    workloads = [w["name"] for w in settings["workloads"]]
    bounds = {m["name"]: m["bound"] for m in settings["end_to_end"]}
    entry = {"label": args.label,
             "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "python": platform.python_version(), "machine": platform.machine(),
             "cpus": len(os.sched_getaffinity(0)), "run_seconds": seconds,
             "seeds": list(SEEDS), "sets": [], "median_moved": {}, "per_layer": {},
             "digests": {}}
    for index in range(SETS):
        first = entry["sets"][0] if entry["sets"] else {}
        summaries = {}
        for workload in workloads:
            summaries[workload], digests = run_set(workload, seconds, bounds,
                                                   first.get(workload))
            if entry["digests"].setdefault(workload, digests) != digests:
                raise SystemExit("%s: digests differ between sets" % workload)
            if first:
                entry["median_moved"][workload] = {
                    n: s["median"] / first[workload][n]["median"] - 1
                    for n, s in summaries[workload].items()}
        entry["sets"].append(summaries)
    if args.ledger:
        for workload in workloads:
            traced, digest = run_once(workload, SEEDS[0], seconds, 1)
            if digest != entry["digests"][workload][SEEDS[0]]:
                raise SystemExit("%s: the traced run's digest %s differs from %s"
                                 % (workload, digest, entry["digests"][workload][SEEDS[0]]))
            entry["per_layer"][workload] = {n: m["value"] for n, m in traced["metrics"].items()}
        with open(args.ledger, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        print("appended %r to %s" % (args.label, args.ledger))
    return 0


if __name__ == "__main__":
    sys.exit(main())

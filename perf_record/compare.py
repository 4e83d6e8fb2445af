#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

A set is a directory of saved run.py outputs, one file per run (any name
ending in .out). Each file holds the run's stdout: the `run:` line names
the workload, seed and trace flag, and the last line is the result object.

    python3 perf_record/compare.py SET_A            # spread of one set
    python3 perf_record/compare.py SET_A SET_B      # and whether B agrees with A

For every workload and metric it prints the median and quartiles of each
set (quartiles as statistics.quantiles(values, n=4) gives them). For the
end-to-end metrics it also prints the spread, (q3 - q1) / median, against
the metric's bound, and, with two sets, how far B's median moved from A's
in the metric's worse direction against the same bound. Exit status is 0
when every end-to-end metric of every workload is steady (spread within
bound; setup_s is exempt) and, with two sets, agrees (shift within bound).
"""
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RUN_LINE = re.compile(r"^run: workload=(\S+) seed=(\d+) seconds=\S+ trace=([01])$")


def load_set(directory):
    """Returns {(workload, trace): {metric: [values]}} plus run counts."""
    runs = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(int)
    files = sorted(Path(directory).glob("*.out"))
    if not files:
        sys.exit(f"compare: no *.out files in {directory}")
    for path in files:
        lines = path.read_text().strip().splitlines()
        header = next((RUN_LINE.match(l) for l in lines if RUN_LINE.match(l)), None)
        if header is None or not lines:
            sys.exit(f"compare: {path} has no run: line")
        result = json.loads(lines[-1])
        if not result.get("correct"):
            sys.exit(f"compare: {path} reports correct = false")
        key = (header.group(1), int(header.group(3)))
        counts[key] += 1
        for name, metric in result["metrics"].items():
            runs[key][name].append(metric["value"])
    return runs, counts


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_shift(base, other, better):
    """Relative move of `other` from `base` in the worse direction."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load_set(d) for d in argv[1:]]
    ok = True
    keys = sorted(set().union(*(s[0].keys() for s in sets)))
    for workload, trace in keys:
        label = "end-to-end" if trace == 0 else "per-layer"
        runs_per_set = ", ".join(str(s[1][(workload, trace)]) for s in sets)
        print(f"\n== {workload} ({label}; runs per set: {runs_per_set})")
        header = f"{'metric':32s} {'median A':>12s} {'q1 A':>12s} {'q3 A':>12s} {'spread A':>9s}"
        if len(sets) == 2:
            header += f" {'median B':>12s} {'spread B':>9s} {'shift':>8s}"
        print(header + f" {'bound':>6s}  verdict")
        names = sorted(set().union(*(s[0][(workload, trace)].keys() for s in sets)))
        for name in names:
            stats = []
            for runs, _ in sets:
                values = runs[(workload, trace)].get(name)
                if not values:
                    print(f"{name:32s} missing in a set")
                    ok = False
                    break
                stats.append(summary(values))
            else:
                row = f"{name:32s}"
                spreads = []
                for q1, med, q3 in stats:
                    spreads.append((q3 - q1) / abs(med) if med else 0.0)
                q1, med, q3 = stats[0]
                row += f" {med:12.6g} {q1:12.6g} {q3:12.6g} {spreads[0]:9.4f}"
                verdict = ""
                bound = bounds.get(name) if trace == 0 else None
                if len(sets) == 2:
                    shift = (worse_shift(stats[0][1], stats[1][1], bound["better"])
                             if bound else 0.0)
                    row += f" {stats[1][1]:12.6g} {spreads[1]:9.4f} {shift:8.4f}"
                if bound:
                    limit = bound["bound"]
                    steady = name == "setup_s" or all(s <= limit for s in spreads)
                    agrees = len(sets) == 1 or shift <= limit
                    verdict = ("ok" if steady and agrees else
                               "NOISY" if not steady else "DISAGREES")
                    if steady and max(spreads) > limit / 3 and name != "setup_s":
                        verdict += " (spread above a third of the bound)"
                    ok = ok and steady and agrees
                    row += f" {limit:6.3f}  {verdict}"
                print(row)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

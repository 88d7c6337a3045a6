#!/usr/bin/env python3
"""Compares two sets of verdict-benchmark results.

    python3 verdictbench/compare.py <results-A> <results-B>

Each argument is a `.bench_work/results` directory (or a copy of one).
Runs are paired by workload, seed and trace flag. A pair whose two sides
generated different inputs is flagged INPUTS DIFFER: the inputs come
from the repository's own solver, so a solver change silently changes
the workload, and such a comparison says nothing about the checker. For
each workload and metric it prints both medians over the paired seeds
and their ratio B/A. The `host.*` rows are the host-speed reference
each run records (code outside the program under test): when they move
with the metrics, the host moved, not the code.
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith("-trace.json"):
            continue
        record = json.loads(path.read_text())
        runs[(record["workload"], record["seed"], record["trace"])] = record
    return runs


def main(a_dir, b_dir):
    a, b = load(a_dir), load(b_dir)
    paired = sorted(set(a) & set(b))
    if not paired:
        print("no runs in common (pair by workload, seed and trace flag)")
        return 1
    differ = 0
    for key in paired:
        if a[key]["fingerprints"] != b[key]["fingerprints"]:
            names = sorted(n for n in set(a[key]["fingerprints"]) | set(b[key]["fingerprints"])
                           if a[key]["fingerprints"].get(n) != b[key]["fingerprints"].get(n))
            print(f"INPUTS DIFFER {key[0]} seed {key[1]} trace {key[2]}: {', '.join(names)}")
            differ += 1
    groups = {}
    for key in paired:
        for side, runs in (("a", a), ("b", b)):
            metrics = dict(runs[key]["metrics"])
            for ref in ("chase_ns", "spin_ns"):
                values = [r[ref] for r in runs[key].get("host_reference", [])]
                if values:
                    metrics[f"host.{ref}"] = {"value": statistics.median(values), "unit": "ns"}
            for name, metric in metrics.items():
                slot = groups.setdefault((key[0], key[2], name), {"a": [], "b": [], "unit": ""})
                slot[side].append(metric["value"])
                slot["unit"] = metric["unit"]
    print(f"{'workload':14} {'metric':40} {'median A':>12} {'median B':>12} {'B/A':>7}  seeds")
    for (workload, _, name), slot in sorted(groups.items()):
        ma, mb = statistics.median(slot["a"]), statistics.median(slot["b"])
        ratio = f"{mb / ma:7.3f}" if ma else "      -"
        print(f"{workload:14} {name:40} {ma:12.4g} {mb:12.4g} {ratio}  {len(slot['a'])}"
              f" {slot['unit']}")
    if differ:
        print(f"{differ} of {len(paired)} paired runs generated different inputs")
    return 2 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(64)
    sys.exit(main(sys.argv[1], sys.argv[2]))

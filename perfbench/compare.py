"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/run.py ... > base-1.txt      # one file per run
    python3 perfbench/compare.py base-*.txt -- new-*.txt

Each file is the saved standard output of one ``run.py --trace 0`` run.
The comparison refuses (exit 2) to pair runs whose host fingerprints
differ (core count, CPU model, Python or NumPy version).  For every
workload and metric it prints both medians, the change, and a verdict
against the metric's bound in ``BENCHMARK.json``: ``worse`` when the new
median is worse by more than the bound, ``unresolved`` when the base
runs spread wider than the bound, ``ok`` otherwise.  Exit 1 if any pairing
is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from common import HOST_KEYS, ROOT


def _report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith('{"report"'):
                return json.loads(line)["report"]
    raise ValueError(f"{path}: no report line")


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base = [_report(p) for p in argv[:cut]]
    new = [_report(p) for p in argv[cut + 1:]]
    runs = [r for r in base + new if r["trace"] == 0]
    hosts = {tuple(r["host"][k] for k in HOST_KEYS) for r in runs}
    if len(hosts) != 1:
        print(f"refusing to compare runs from different hosts: "
              f"{sorted(hosts)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    worse_any = False
    for workload in sorted({r["workload"] for r in runs}):
        print(workload)
        for spec in metrics:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and r["trace"] == 0]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and r["trace"] == 0]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if spec["better"] == "lower" else -change
            verdict = ("worse" if worse > spec["bound"] else
                       "unresolved" if _spread(a) > spec["bound"] else "ok")
            worse_any |= verdict == "worse"
            print(f"  {name:<20} {ma:>12.5g} -> {mb:>12.5g} {spec['unit']:<7}"
                  f" {change:+8.2%}  bound {spec['bound']:.0%}  {verdict}"
                  f"  (n={len(a)}/{len(b)})")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 bench/compare.py --base base_*.json --new new_*.json

For each workload and metric, prints both sides' median and quartiles over
the records given, the change of the medians, and for end-to-end metrics
whether the change stays within the bound fixed in BENCHMARK.json.  Refuses
(exit 2) to compare records taken on different Python versions or mpmath
backends, since either moves every timing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MACHINE_KEYS = ("python", "mpmath_backend")


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def mismatched_machine(records: list[dict]) -> list[str]:
    """Names of the machine fields that are not the same in every record."""
    return [key for key in MACHINE_KEYS if len({r["machine"][key] for r in records}) > 1]


def compare(base: list[dict], new: list[dict], bounds: dict) -> list[str]:
    lines = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        b_recs = [r for r in base if r["workload"] == workload]
        n_recs = [r for r in new if r["workload"] == workload]
        metrics = [m for m in b_recs[0]["result"]["metrics"] if m in n_recs[0]["result"]["metrics"]]
        lines.append("%s (%d base, %d new records)" % (workload, len(b_recs), len(n_recs)))
        for name in metrics:
            b = quartiles([r["result"]["metrics"][name]["value"] for r in b_recs])
            n = quartiles([r["result"]["metrics"][name]["value"] for r in n_recs])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = change if better == "lower" else -change
                verdict = "REGRESSION" if worse > bound else "ok (bound %g)" % bound
            lines.append(
                "  %-40s base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  %+.1f%%  %s"
                % (name, b[1], b[0], b[2], n[1], n[0], n[2], 100 * change, verdict)
            )
    return lines


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    mismatch = mismatched_machine(base + new)
    if mismatch:
        print("refusing to compare: records differ in %s" % ", ".join(mismatch), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    print("\n".join(compare(base, new, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

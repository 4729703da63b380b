"""Summarise run records into a baseline: per workload and metric, the
median and quartiles over the runs, with the seeds and provenance.

    python3 benchmarks/baseline.py benchmarks/out/run-*-trace0.json > benchmarks/baseline.json
    python3 benchmarks/baseline.py benchmarks/out/run-*-trace1.json > benchmarks/baseline_layers.json

baseline.json holds the seed commit's end-to-end figures (ten seeds per
workload); baseline_layers.json its per-layer split (one traced run each).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarise(records) -> dict:
    by_workload = defaultdict(list)
    for rec in records:
        by_workload[rec["workload"]].append(rec)
    first = records[0]["provenance"]
    out = {
        "provenance": {
            k: first[k]
            for k in ("commit", "src_sha256", "python", "numpy", "scipy", "nproc")
        },
        "seconds": records[0]["seconds"],
        "workloads": {},
    }
    for name, recs in sorted(by_workload.items()):
        values = defaultdict(list)
        for rec in recs:
            for metric, m in rec["line"]["metrics"].items():
                values[(metric, m["unit"])].append(m["value"])
        loads = [
            r["provenance"][k]
            for r in recs
            for k in ("loadavg_1min_start", "loadavg_1min_end")
        ]
        out["workloads"][name] = {
            "seeds": [r["seed"] for r in recs],
            "shape": recs[0]["processes"][-1]["shape"],
            "failed": sum(r["line"]["failed"] for r in recs),
            "attempted": sum(r["line"]["attempted"] for r in recs),
            "loadavg_1min_range": [min(loads), max(loads)],
            "metrics": {},
        }
        for (metric, unit), xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            median = statistics.median(xs)
            out["workloads"][name]["metrics"][metric] = {
                "unit": unit,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "n": len(xs),
            }
    return out


def main(paths) -> int:
    records = [json.loads(open(p).read()) for p in paths]
    if not records:
        print("usage: baseline.py RUN_RECORD.json ...", file=sys.stderr)
        return 2
    if len({(r["provenance"]["src_sha256"], r["trace"]) for r in records}) != 1:
        print("records mix source trees or trace modes", file=sys.stderr)
        return 2
    print(json.dumps(summarise(records), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

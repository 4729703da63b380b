"""Self-test of the benchmark harness; about a minute.

    python3 benchmarks/selftest.py

Checks BENCHMARK.json and layers.json against each other and the metric
naming rules, then runs every workload at a tiny size: once untraced and
twice traced with the same seed. Every run must pass its output checks and
print every metric of its mode with its unit; the deterministic figures
(accuracy of the first ops, per-op span call and row counts) must repeat
exactly. Last, run.py must refuse, with a nonzero exit and no result, a
directory holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7
DETERMINISTIC = ("calls", "rows")


def check_spec(spec, layers) -> list:
    errors = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m.get("unit", "")):
            errors.append(f"bad metric name or unit: {m}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"bound of {m['name']} is outside (0, 0.25]")
    grouped = [name for g in layers["groups"] for name in g["metrics"]]
    if sorted(grouped) != sorted(per_layer):
        errors.append("layers.json groups do not cover the per-layer metrics once each")
    workloads = {w["name"] for w in spec["workloads"]}
    for g in layers["groups"]:
        for metric, names in g["moves"].items():
            if metric not in e2e or not set(names) <= workloads:
                errors.append(f"layers.json maps to unknown {metric} or {names}")
    return errors


def run(workload, trace):
    """One tiny run; returns (exit status, last output line, full record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    record_path = HERE / "out" / f"run-{workload}-seed{SEED}-trace{trace}.json"
    record = json.loads(record_path.read_text()) if proc.returncode == 0 else None
    return proc.returncode, (lines[-1] if lines else proc.stderr), record


def deterministic(record) -> dict:
    worker = record["processes"][-1]
    out = {k: worker[k] for k in ("log_z_rmse", "tracking_err.mean")}
    out.update(
        (k, v) for k, v in worker.get("per_layer", {}).items()
        if k.rsplit(".", 1)[-1] in DETERMINISTIC
    )
    return out


def check_workload(spec, workload) -> list:
    errors = []
    seen = []
    for trace in (0, 1, 1):
        status, last, record = run(workload, trace)
        if status != 0:
            return [f"{workload} trace {trace}: exit {status}: {last}"]
        line = json.loads(last)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != want:
            errors.append(f"{workload} trace {trace}: metrics/units {got} != {want}")
        for k, v in line["metrics"].items():
            value = v["value"]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                errors.append(f"{workload}: {k} = {v['value']!r}")
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            errors.append(f"{workload} trace {trace}: {record['failures']}")
        seen.append(deterministic(record))
    accuracy = ("log_z_rmse", "tracking_err.mean")
    if any(seen[0][k] != seen[1][k] for k in accuracy):
        errors.append(f"{workload}: accuracy differs between traced and untraced runs")
    if seen[1] != seen[2]:
        errors.append(f"{workload}: deterministic figures differ: {seen[1]} {seen[2]}")
    return errors


def check_bare_directory() -> list:
    """run.py in a directory with only BENCHMARK.json and benchmarks/*."""
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        skip = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(HERE, bare / HERE.name, ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, str(Path(HERE.name) / "run.py"),
             "--workload", "enum-counts", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, output {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    errors = check_spec(spec, layers)
    for w in spec["workloads"]:
        errors += check_workload(spec, w["name"])
        print(f"{w['name']}: done", flush=True)
    errors += check_bare_directory()
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

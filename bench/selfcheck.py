#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny scale; run from the repository root:

    python3 bench/selfcheck.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports,
with the same units; that every workload, untraced and traced, prints one
result line with every metric, a numeric value and its unit, with all outputs
correct; and that the benchmark fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark. Takes about a
minute. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_declaration(spec: dict) -> list[str]:
    errors = []
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        if named != declared:
            errors.append(f"BENCHMARK.json {key} differs from run.py: "
                          f"{sorted(set(named.items()) ^ set(declared.items()))}")
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != list(run.WORKLOAD_NAMES):
        errors.append(f"BENCHMARK.json workloads {workloads} != {list(run.WORKLOAD_NAMES)}")
    return errors


def check_result(line: str, expected: dict[str, str], where: str) -> list[str]:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"{where}: last line is not JSON: {line[:200]!r}"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r} is not a finite number")
    return errors


def check_runs(seed: int) -> list[str]:
    errors = []
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180, check=False)
            where = f"{name} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            expected = run.PER_LAYER if trace else run.END_TO_END
            errors += check_result(lines[-1], expected, where)
            print(f"{where}: {len(expected)} metrics checked", flush=True)
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark: no program to measure."""
    bare = Path.cwd() / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(Path.cwd() / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", run.WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    print("bare directory: fails without a result, as it should", flush=True)
    return []


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_declaration(spec)
    errors += check_runs(seed=3)
    errors += check_bare_directory()
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck ok" if not errors else f"selfcheck: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

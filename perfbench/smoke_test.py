#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds S]

Runs every workload briefly through run.py, untraced and traced, and checks
that each run exits 0 with every metric BENCHMARK.json names printed by name
with its unit, that fail_frac is 0, and that the traced run wrote its spans
and found its counts in agreement with the untraced run's. Finally checks
that the benchmark refuses to run, without printing a result, from a
directory that holds only BENCHMARK.json and perfbench/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, seconds, trace, failures):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=600)
    tag = f"{workload} --trace {trace}"
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        failures.append(f"{tag}: exit {p.returncode}\n{p.stdout}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        failures.append(f"{tag}: correct={result['correct']} "
                        f"failed={result['failed']}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = (parts[1], parts[2])
    if printed.get("fail_frac", ("?",))[0] != "0":
        failures.append(f"{tag}: fail_frac line {printed.get('fail_frac')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        failures.append(f"{tag}: metric set differs from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append(f"{tag}: {m['name']} missing or unit {got}")
        elif printed.get(m["name"], (None, None))[1] != m["unit"]:
            failures.append(f"{tag}: {m['name']} not printed with its unit")
    if trace:
        if "counts agree" not in lines:
            failures.append(f"{tag}: traced counts disagree with untraced")
        spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-7.csv")
        if not os.path.isfile(spans) or os.path.getsize(spans) == 0:
            failures.append(f"{tag}: no spans written to {spans}")


def check_isolated(failures):
    iso = os.path.join(ROOT, ".bench_build", "smoke-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "rpc-pa", "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=iso, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(iso, ignore_errors=True)
    if p.returncode == 0 or "{" in p.stdout:
        failures.append("isolated copy: expected a non-zero exit and no "
                        f"result, got exit {p.returncode}: {p.stdout!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], a.seconds, trace, failures)
    check_isolated(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the library and the load generator, then run one workload or all.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

The build goes to .bench_build/perfbench under the repository root; build
output goes to stderr so that the last line of stdout is the result JSON.
With --workload all, every workload runs in turn, an informational
PA-vs-classic latency ratio is printed, and the last line aggregates the
per-workload results (metric names prefixed with the workload).
Exit status: 0 when every run was correct, 1 when a run failed its output
check, 2 when the benchmark could not be built or run.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["rpc-pa", "rpc-classic", "stream-pa", "rpc-secure"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/ next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if rc != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, result dict or None, lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {workload} did not finish: {e}", file=sys.stderr)
        return 2, None, []
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stdout.write(p.stdout)
        return (p.returncode or 2), None, lines
    return p.returncode, result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    names = WORKLOADS if a.workload == "all" else [a.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {a.workload}; choose one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if not build():
        return 2

    results = {}
    worst = 0
    for name in names:
        rc, result, lines = run_one(name, a.seed, a.seconds, a.trace)
        if result is None:
            return rc
        worst = max(worst, rc)
        if len(names) == 1:
            sys.stdout.write("\n".join(lines) + "\n")
            return rc
        print(f"== {name}")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[name] = result

    if a.trace == 0:
        key = "lat_p50_udp_rts"
        pa_p50 = results["rpc-pa"]["metrics"][key]["value"]
        cl_p50 = results["rpc-classic"]["metrics"][key]["value"]
        ratio = pa_p50 / cl_p50 if cl_p50 else 0.0
        print(f"pa_vs_classic (informational, no gate): rpc-pa {key} "
              f"{pa_p50:.3f} / rpc-classic {key} {cl_p50:.3f} = "
              f"{ratio:.3f}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())

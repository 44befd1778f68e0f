#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny configs (under a minute once built).

    python3 perfbench/selftest.py

Run from the repository root.  Checks that:
  * the metric names and units run.py prints, with --trace 0 and 1, are
    exactly the end_to_end and per_layer lists of BENCHMARK.json, and the
    binary's traced pass emits no metric that BENCHMARK.json lacks;
  * a corrupted pinned fingerprint is reported as a failed run with a
    non-zero exit;
  * the traced and untraced passes give the same fingerprint.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_build" / "selftest"
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"


def run_bench(workload, trace, pins=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def binary_pass(workload, mode):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", "3", "--mode", mode,
         "--dir", str(SCRATCH / workload), "--tiny", "1",
         "--trace-out", str(SCRATCH / f"{workload}.trace.json")],
        stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result["fingerprint"], set(result["metrics"])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    for workload in workloads:
        for trace in (0, 1):
            rc, result = run_bench(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if rc != 0 or not result["correct"]:
                failures.append(f"{workload} --trace {trace}: rc={rc}, "
                                f"result {result}")
            if printed != expected[trace]:
                failures.append(
                    f"{workload} --trace {trace}: names/units differ from "
                    f"BENCHMARK.json: missing "
                    f"{sorted(set(expected[trace]) - set(printed))}, extra "
                    f"{sorted(set(printed) - set(expected[trace]))}, unit "
                    f"mismatches {[k for k in printed if k in expected[trace] and printed[k] != expected[trace][k]]}")

    # A corrupted pin must fail the run.
    SCRATCH.mkdir(parents=True, exist_ok=True)
    pins = json.loads((HERE / "pins.json").read_text())
    good = pins["tiny"]["fig4-sweep"]["1"]
    pins["tiny"]["fig4-sweep"]["1"] = format(int(good, 16) ^ 1, "016x")
    bad_pins = SCRATCH / "pins-corrupted.json"
    bad_pins.write_text(json.dumps(pins))
    rc, result = run_bench("fig4-sweep", 0, pins=bad_pins)
    if rc == 0 or result["correct"] or result["failed"] == 0:
        failures.append(f"corrupted pin not reported: rc={rc}, {result}")

    # Traced and untraced passes agree, on a seed with no pin.
    for workload in workloads:
        rc_run, fp_run, _ = binary_pass(workload, "run")
        rc_traced, fp_traced, emitted = binary_pass(workload, "traced")
        if rc_run != 0 or rc_traced != 0 or fp_run != fp_traced:
            failures.append(f"{workload}: untraced {fp_run} (rc {rc_run}) vs "
                            f"traced {fp_traced} (rc {rc_traced})")
        if not emitted <= set(expected[1]):
            failures.append(f"{workload}: traced pass emits metrics not in "
                            f"BENCHMARK.json: "
                            f"{sorted(emitted - set(expected[1]))}")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

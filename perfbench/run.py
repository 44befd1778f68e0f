#!/usr/bin/env python3
"""Host-time benchmark of the simulator (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds perfbench/ with CMake (Release) into
.bench_build/perfbench, then launches the perfbench binary once per
repetition until --seconds have passed (at least MIN_REPS times), each
repetition in a fresh process so peak RSS is never shared.

--trace 0 reports the end-to-end metrics (medians over the repetitions).
--trace 1 runs the same repetitions plus the traced pass, and reports the
per-layer metrics instead; its Chrome trace lands in .bench_build/traces/.
Metric names and units come from BENCHMARK.json; a listed metric with no
value makes the run incorrect.

Every repetition must pass the run-end checks and produce the same output
fingerprint; for seeds pinned in pins.json it must equal the pin.  The
traced pass, and for fig4-sweep an Experiment-driven check pass, must
reproduce the untraced fingerprint.  Any failure makes the run incorrect
and the exit code 1.  The last stdout line is the result JSON.
"""

import argparse
import ctypes
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "perfbench"

MIN_REPS = 2
MAX_REPS = 40
BUDGET_S = 170.0  # a run (after the build) must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", "4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def fixed_layout():
    """Child set-up: turn off address-space randomisation (personality
    ADDR_NO_RANDOMIZE).  Where the loader places the binary changes how
    many file pages fault in, so with it on, identical runs differ in peak
    RSS by up to 10% at 384 nodes; with it off they agree to the byte."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | 0x0040000)


def launch(args, mode, deadline, extra=()):
    """Run the binary once; returns its result dict, or None on a crash."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--dir", str(WORK_DIR / args.workload), *extra]
    if args.tiny:
        cmd += ["--tiny", "1"]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {mode} pass timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {mode} pass exited {proc.returncode} without a result")
        return None
    for err in result["errors"]:
        log(f"perfbench: {mode} pass: {err}")
    return result


def pinned(pins_path, workload, seed, tiny):
    pins = json.loads(Path(pins_path).read_text())
    return pins["tiny" if tiny else "full"].get(workload, {}).get(str(seed))


def report(spec, values, errors):
    """The metrics of `spec` (a BENCHMARK.json list) with their units; a
    name missing from `values` is an error."""
    metrics = {}
    for m in spec:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            errors.append(f"no value for metric {m['name']}")
    return metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny configs, for the self-test only")
    ap.add_argument("--pins", default=str(HERE / "pins.json"))
    args = ap.parse_args()

    if not build():
        return 1
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + BUDGET_S

    attempted = 0
    failed = 0
    fingerprints = []
    reps = []

    ops_per_pass = 6 if args.workload == "fig4-sweep" else 1  # sweep cells

    def account(result, mode):
        nonlocal attempted, failed
        attempted += ops_per_pass
        if result is None:
            failed += ops_per_pass
            return False
        failed += int(result["failed_ops"])
        fingerprints.append((mode, result["fingerprint"]))
        return result["failed_ops"] == 0

    # Timed, untraced repetitions.  A repetition starts only while the
    # measuring window is open and the slowest one so far still fits (with
    # room left for the traced pass, which runs about as long again).
    slowest = 0.0
    while True:
        now = time.monotonic()
        if len(reps) >= MIN_REPS and (now - start >= args.seconds
                                      or len(reps) >= MAX_REPS):
            break
        reserve = (2 + 2 * args.trace) * slowest
        if reps and now + reserve > deadline:
            break
        result = launch(args, "run", deadline)
        slowest = max(slowest, time.monotonic() - now)
        if account(result, "run"):
            reps.append(result)
            print(f"# rep {len(reps)}: setup_s={result['setup_s']:.6f} "
                  f"run_s={result['run_s']:.6f} "
                  f"rss_bytes_per_node={result['rss_bytes_per_node']:.1f} "
                  f"fingerprint={result['fingerprint']}")
        if result is None:
            break

    if args.workload == "fig4-sweep" and args.trace == 0:
        account(launch(args, "check", deadline), "check")

    traced = None
    if args.trace == 1:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        size = "-tiny" if args.tiny else ""
        trace_path = TRACE_DIR / f"{args.workload}{size}-seed{args.seed}.json"
        traced = launch(args, "traced", deadline,
                        ["--trace-out", str(trace_path)])
        if account(traced, "traced"):
            print(f"# trace: {trace_path.relative_to(ROOT)}; bus profiler "
                  f"{traced['profiler_ns_per_handler']:.1f} ns per handled "
                  f"message, taken out of sim.outside_handlers_ns_per_event")
        else:
            traced = None

    # Correctness: every pass must match the pin, or for unpinned seeds
    # the first pass (determinism).
    pin = pinned(args.pins, args.workload, args.seed, args.tiny)
    expected = pin if pin is not None else (
        fingerprints[0][1] if fingerprints else None)
    for mode, fp in fingerprints:
        if fp != expected:
            log(f"perfbench: {mode} pass fingerprint {fp} != expected "
                f"{expected}" + (" (pinned)" if pin is not None else ""))
            failed += ops_per_pass
    if reps:
        print(f"# machine: {json.dumps(reps[0]['context'])}")

    metrics = {}
    errors = []
    if reps and args.trace == 0:
        medians = {m["name"]: statistics.median(r[m["name"]] for r in reps)
                   for m in spec["end_to_end"] if m["name"] in reps[0]}
        metrics = report(spec["end_to_end"], medians, errors)
    if reps and traced is not None:
        untraced_run_s = statistics.median(r["run_s"] for r in reps)
        values = dict(traced["metrics"])
        values["obs.trace_overhead_ratio"] = traced["run_s"] / untraced_run_s
        metrics = report(spec["per_layer"], values, errors)
    for err in errors:
        log(f"perfbench: {err}")

    correct = (failed == 0 and not errors and len(reps) >= MIN_REPS
               and (args.trace == 0 or traced is not None))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The Focus end-to-end benchmark: build, run one workload, or check steadiness.

One run (the benchmark's command):
    python3 perfbench/run.py --workload <tune_index|live_ingest|serve> \
        --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ (the Focus library from src/ plus the benchmark binary, in
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the workload, and prints a host fingerprint line followed, as the last
line of stdout, by the result object {"correct", "attempted", "failed",
"metrics"}. Traced runs leave their spans in <build dir>/traces/.

Steadiness:
    python3 perfbench/run.py --steady <N> [--workload <w>] [--seconds <s>]
        [--seed-base <b>]

runs each workload N times with seeds b+1..b+N and prints, per end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "focus_stream.h")):
        print("perfbench: the Focus sources (src/) are missing", file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def host_fingerprint():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model or platform.machine(), "nproc": os.cpu_count(),
            "kernel": platform.release(), "build_type": "Release"}


def remove_segments(pid):
    """Unlinks shm segments a crashed run of |pid| may have left behind."""
    prefix = "focus_perfbench_%d_" % pid
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass


def run_once(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns the parsed result object, or None."""
    work_dir = os.path.join(out, "runs", "%d-%s-%d" % (os.getpid(), workload, seed))
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--work-dir", work_dir]
    # Own process group: whatever the run forks is stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        stdout = ""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    remove_segments(proc.pid)
    if trace and os.path.isdir(work_dir):
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(work_dir):
            if name.startswith("trace-"):
                shutil.move(os.path.join(work_dir, name), os.path.join(traces, name))
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print("perfbench: %s exited with %d" % (workload, proc.returncode), file=sys.stderr)
        return None
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(args, binary, out):
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.steady):
            seed = args.seed_base + i + 1
            t0 = time.monotonic()
            result = run_once(binary, out, workload, seed, seconds, False)
            wall = time.monotonic() - t0
            if result is None:
                print("%s seed %d: no result" % (workload, seed))
                ok = False
                continue
            print("%s seed %d: %.1f s, correct=%s attempted=%d failed=%d %s" % (
                workload, seed, wall, result["correct"], result["attempted"],
                result["failed"], " ".join("%s=%.4g" % (k, v["value"])
                                           for k, v in result["metrics"].items())),
                flush=True)
            ok = ok and result["correct"]
            results.append(result)
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: failed share %s" % (workload, shares))
        print("%-22s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                               "spread", "bound"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                print("%-22s missing" % name)
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= metric["bound"] / 3 else (
                " WIDE" if spread <= metric["bound"] else " OVER")
            print("%-22s %12.5g %12.5g %12.5g %8.3f %6.2f%s" % (
                name, med, q1, q3, spread, metric["bound"], flag))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "focus_perfbench")
    if args.steady > 0:
        return steady(args, binary, out)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required")
    result = run_once(binary, out, args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return 1
    print("host: " + json.dumps(host_fingerprint()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark entry point for the CESRM reproduction.

Builds the perfbench executable and the protocol libraries it links from
the sources of this checkout (Release, incremental), runs its gate
self-test, then runs one workload in its own process and prints the
executable's detail lines followed by one JSON result line:

    python3 perfbench/run.py --workload paper_sweep --seed 3 \
        --seconds 20 --trace 0

With --trace 0 the result holds every end-to-end metric of BENCHMARK.json;
with --trace 1 every per-layer metric (0 for a layer the workload does not
exercise). Exits non-zero, without a result line, when the sources are
missing, the build or self-test fails, or the workload does not finish.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_sweep", "scale_population", "netio_loopback")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else ROOT / ".bench_build"


def build(out):
    """Configures once, then builds incrementally; serialized by a lock."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        steps.append(["cmake", "--build", str(out), "-j",
                      str(os.cpu_count() or 1), "--target", "perfbench",
                      "perfbench_gate_test"])
        steps.append([str(out / "perfbench_gate_test")])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("failed: " + " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "CMakeLists.txt").exists() or not spec_path.exists():
        log(f"no CESRM sources or BENCHMARK.json under {ROOT}")
        return 1
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    if not build(out):
        return 1

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                str(out / f"spans-{args.workload}-{args.seed}.jsonl")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench exited with status {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    # perfbench reports what the workload measured; the result line holds
    # exactly the metrics BENCHMARK.json names for this mode.
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log(f"perfbench did not report end-to-end metric {m['name']}")
                return 1
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            return 1
        metrics[m["name"]] = got
    extra = sorted(set(result["metrics"]) - set(metrics))

    for line in lines[:-1]:
        print(line)
    if extra:
        print("# not in this mode's metric list: " + ", ".join(extra))
    print(f"# perfbench wall {time.monotonic() - started:.3f} s")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo benchmark: builds the simulator with the perf preset, runs one
workload, checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to .bench_build/perfbench.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics BENCHMARK.json names (--trace 0),
or its per-layer metrics (--trace 1). The lines before it print every metric
with its unit and sample count, the output checks and the run manifest.
Traced runs also write a Chrome trace to .bench_build/traces/.

Exit status: 0 when every output check passes; 1 when a check fails; 2 on
bad arguments; 3 when the build fails or the build is unoptimised; 4 when
the run itself fails or overruns its time limit.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Later performance claims must also hold on this seed; it is never used
# while tuning a change.
HELD_OUT_SEED = 7919


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds under a lock, so concurrent runs share one build."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if proc.returncode != 0:
                log(proc.stdout)
                log("perfbench: build failed: " + " ".join(cmd))
                return False
    return True


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout may not
    be a git repository, so this identifies the code either way)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_binary(cmd, timeout):
    """Runs the benchmark binary in its own process group, so a timeout can
    stop it together with any worker processes it forked."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny shrinks every input (self-tests only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build():
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.size == "tiny":
        cmd.append("--tiny")
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    # A rep can overrun the budget by one rep; leave room, stay under 180 s.
    code, out = run_binary(cmd, timeout=min(170.0, 2 * args.seconds + 60.0))
    if code is None:
        log("perfbench: run timed out")
        return 4
    if code == 3:
        log("perfbench: the build is unoptimised; refusing to report")
        return 3
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: run failed (exit %d) without a result" % code)
        return 4
    manifest = result["manifest"]
    if not manifest.get("optimized"):
        log("perfbench: the build is unoptimised; refusing to report")
        return 3
    manifest.update({"git_sha": git_sha(), "source_sha256": source_digest(),
                     "workload": args.workload, "seed": args.seed,
                     "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
                     "trace_file": os.path.relpath(trace_path, ROOT) if trace_path else None})

    print("# manifest " + json.dumps(manifest, sort_keys=True))
    for check in result["checks"]:
        print("# check %-32s %s %s" % (check["name"], "ok" if check["ok"] else "FAIL",
                                        check["detail"]))
    for kind in ("end_to_end", "per_layer"):
        for name, m in sorted(result[kind].items()):
            print("# %-10s %-36s %16.6g %-8s samples=%d" % (kind, name, m["value"],
                                                           m["unit"], m["samples"]))

    metrics = {}
    for entry in wanted:
        got = result["end_to_end" if not args.trace else "per_layer"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            log("perfbench: metric %s missing or in the wrong unit" % entry["name"])
            return 4
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

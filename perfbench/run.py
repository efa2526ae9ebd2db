#!/usr/bin/env python3
"""Builds and runs the perfbench host-cost benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the simulator libraries from
src/) into .bench_build/perfbench, then runs the benchmark binary. Build output
goes to stderr; the benchmark's report goes to stdout, and its last line is
one JSON object with the keys correct, attempted, failed and metrics. With
--workload all every workload runs in turn and a combined object, with
metric names prefixed by the workload, comes last. Exits non-zero, without a
result line, if the build fails; exits non-zero after printing the result if
any trial's outcome check failed.

See perfbench/BENCHMARK.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

WORKLOADS = ["omega-contended", "hifi-replay", "mesos-offers", "federation-16"]
DEFAULT_SEED = 1
# Longest one benchmark process may take: --seconds plus one whole trial of
# overrun plus process start, well inside a three-minute budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; False if it fails."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Concurrent invocations in one checkout share the build directory.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if not run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                               BUILD_TIMEOUT_S):
                # A failed configure must not leave a cache that skips it
                # next time.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        return run_checked(["cmake", "--build", BUILD_DIR, "--target",
                            "perfbench", "-j", jobs], BUILD_TIMEOUT_S)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources, so a result names
    the code it measured even in a checkout without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def run_one(workload, args, sha, digest):
    """Runs the benchmark binary for one workload, relaying its stdout.
    Returns (exit code, parsed last line or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", sha, "--src-digest", digest]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    # A hung run is killed, which ends the read loop below.
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code < 0:
        log(f"{workload}: killed by signal {-code}")
        return 1, None
    sys.stdout.flush()
    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Stop the child on SIGTERM the way Ctrl-C would.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        log("build failed")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    sha, digest = git_sha(), source_digest()

    if args.workload != "all":
        code, result = run_one(args.workload, args, sha, digest)
        return code if result is not None else max(code, 1)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args, sha, digest)
        worst = max(worst, code if result is not None else max(code, 1))
        if result is None:
            combined["correct"] = False
            combined["failed"] += 1
            combined["attempted"] += 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())

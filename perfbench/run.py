#!/usr/bin/env python3
"""Builds and runs one workload of the vadasa benchmark.

    python3 perfbench/run.py --workload native-release --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own unit tests

Run from the root of a checkout. The library, vadasa_serve and the runner are
built from the checkout's sources into .bench_build/ (or $CARGO_TARGET_DIR),
the run works in .bench_build/run/, and the last line printed is the JSON
result: {"correct", "attempted", "failed", "metrics"}. Build output and the
runner's diagnostics go to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    return proc.returncode


def build(targets):
    """Configures and builds `targets`; returns the build directory or None."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        try:
            code = run_logged(cmd, log_path, BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {cmd[:2]} failed: {err}")
            return None
        if code != 0:
            with open(log_path, "rb") as f:
                tail = f.read()[-3000:].decode("utf-8", "replace")
            log(f"build failed (see {log_path}):\n{tail}")
            return None
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record release digests (default seed only)")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        out = build(["perfbench_tests"])
        if out is None:
            return 1
        return subprocess.run([os.path.join(out, "perfbench_tests")], cwd=out,
                              check=False).returncode
    if not args.workload:
        parser.error("--workload is required")

    out = build(["perfbench", "perfbench_serve"])
    if out is None:
        return 1
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.json"),
           "--serve", os.path.join(out, "vadasa_serve"),
           "--workdir", os.path.join(build_dir(), "run")]
    if args.record_digests:
        cmd.append("--record-digests")
    # Own process group, so a timeout stops the runner and anything it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"runner exited with {proc.returncode}")
        return 1
    lines = stdout.decode().strip().splitlines()
    if not lines:
        log("runner printed no result")
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

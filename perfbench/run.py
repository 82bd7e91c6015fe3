#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (which
compiles the library from src/) with CMake on first use, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench, then runs afsbench.
--trace 1 preloads the afs_syscount shim.  The last stdout line is the
JSON result; build output goes to stderr.  See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("memory-small", "disk-bulk", "remote-zipf", "open-churn")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources at src/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "afsbench", "afs_syscount"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"run.py: build failed: {err}")

    env = dict(os.environ)
    if args.trace:
        env["LD_PRELOAD"] = os.path.join(build_dir, "libafs_syscount.so")
    cmd = [os.path.join(build_dir, "afsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout takes any forked sentinel with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: afsbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(out)
        sys.exit(f"run.py: afsbench exited {proc.returncode} without a result")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

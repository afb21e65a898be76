#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `wmcs-perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build` in the current directory),
runs it, and prints its report; the last line of standard output is the
JSON result object. With `--trace 0` the result also carries
`peak_rss_mb`, the benchmark process's peak resident set size as the
kernel reports it for the exited child.

Exits 0 when a result was printed (its `correct` field carries the
verdict) and non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream_churn_1e5", "service_table", "stream_ingest")
CHILD = None


def stop(signum, _frame):
    """On SIGTERM/SIGINT, stop the running child and wait for it."""
    if CHILD is not None and CHILD.poll() is None:
        CHILD.kill()
        CHILD.wait()
    sys.exit(128 + signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    global CHILD
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    CHILD = subprocess.Popen(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if CHILD.wait() != 0:
        print(f"error: build failed (exit {CHILD.returncode})", file=sys.stderr)
        return 3

    cmd = [
        os.path.join(target, "release", "wmcs-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    CHILD = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = CHILD.stdout.read().splitlines()
    CHILD.stdout.close()
    # wait4 reaps this child and reports its own peak RSS (KiB on Linux).
    _, status, usage = os.wait4(CHILD.pid, 0)
    CHILD.returncode = os.waitstatus_to_exitcode(status)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        print(f"error: no result (exit {CHILD.returncode})", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        print(f"{'peak_rss_mb':<34} {usage.ru_maxrss / 1024.0:>16.6f} MB")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as the last line.

    python3 perfbench/run.py --workload analytic|serve|spill --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark crate is built from source with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`); spill files and span logs go under `<target>/perfbench-out/`.

`--trace 0` runs the untraced binary and reports the end-to-end metrics.
`--trace 1` runs the untraced binary, then the traced one (spans on, counting
allocator installed, per-layer probes), and reports the per-layer metrics
plus the tracing overhead: the relative difference between the two runs'
`p50_ms`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is non-zero on
a failed build, a crashed run or any wrong answer.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150


def sh(cmd):
    """stdout of `cmd` run in the repository root, or None if it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": sh(["rustc", "-V"]) or "unknown",
        # Only this checkout's own repository names the commit.
        "commit": (sh(["git", "rev-parse", "HEAD"])
                   if sh(["git", "rev-parse", "--show-toplevel"]) == ROOT
                   else None) or "none (not a git checkout)",
        "seed": seed,
    }


def run_binary(binary, args, out_dir, env):
    """Run one benchmark binary; return (result object, its text lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", out_dir]
    cmd += ["--trace", "1" if binary.endswith("_traced") else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {os.path.basename(binary)} timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"perfbench: {os.path.basename(binary)} exited {proc.returncode} without a result")
    return result, lines[:-1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["analytic", "serve", "spill"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    out_dir = os.path.join(target, "perfbench-out")
    tmp = os.path.join(out_dir, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # Spill directories go under the checkout, not the system temp dir.
    env["TMPDIR"] = tmp

    print("# host: " + json.dumps(fingerprint(args.seed)), flush=True)
    release = os.path.join(target, "release")
    result, lines = run_binary(os.path.join(release, "perfbench"), args, out_dir, env)
    if args.trace:
        untraced = result
        result, traced_lines = run_binary(os.path.join(release, "perfbench_traced"), args, out_dir, env)
        lines += traced_lines
        base = untraced["metrics"]["p50_ms"]["value"]
        traced = result["metrics"]["trace.p50_ms"]["value"]
        result["metrics"]["trace.overhead_pct"] = {"value": (traced - base) / base * 100.0, "unit": "%"}
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
    shutil.rmtree(tmp, ignore_errors=True)

    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

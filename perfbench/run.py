#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <fig11-sweep|serve-zipf|replay-wide> \
        --seed <n> --seconds <s> --trace <0|1>

The harness is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Build output goes to standard
error; the harness's report goes to standard output, whose last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. That line is
checked against `BENCHMARK.json` before it is printed: an untraced run must
report exactly the `end_to_end` metrics and a traced run exactly the
`per_layer` metrics. Result files and spans are written under
`$CARGO_TARGET_DIR/perfbench-out`.

Exit codes: 0 when every op and output check passed; the harness's own
non-zero code when one failed; 2 for bad arguments or a failed build; 3 when
the result line does not match `BENCHMARK.json`; 4 on a timeout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A single run must finish well inside the three minutes one run is allowed.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the harness builds from, so a result names
    the code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """The commit of the checkout, or "none" outside a git repository."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10,
        )
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return head.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench-out"),
        "--commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: the last line is not a JSON result", file=sys.stderr)
        return run.returncode or 3
    wanted = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(wanted) or sorted(result) != sorted(
        ["correct", "attempted", "failed", "metrics"]
    ):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: result metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

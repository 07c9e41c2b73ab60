#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

Usage (from the repository root):

    python3 enginebench/run.py --workload <fleet_flash|zoo_infer|stream_ingest> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the
repository root); cargo's output goes to stderr, so the last line of
stdout is the benchmark's JSON result.

An end-to-end run (--trace 0) is confined to one CPU, so the program
fans out to one thread: on a shared host each 2-thread fork-join waits
for whichever CPU the host lends last, and the end-to-end figures
measured that rather than the program. A traced run (--trace 1) keeps
every CPU, so its per-layer split shows the fan-out cost.
RAYON_NUM_THREADS is passed through untouched.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def commit_id():
    """The git commit when ROOT is a git work tree, else a digest of the sources."""
    try:
        # The ceiling keeps git from reading any repository above ROOT.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "enginebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def one_cpu():
    """The highest-numbered CPU this process may run on."""
    return {max(os.sched_getaffinity(0))}


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "enginebench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("enginebench: build failed", file=sys.stderr)
        return build.returncode or 1
    out_dir = os.path.join(target, "enginebench")
    os.makedirs(out_dir, exist_ok=True)
    args = sys.argv[1:]
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    if not traced:
        os.sched_setaffinity(0, one_cpu())
    cmd = [os.path.join(target, "release", "enginebench"), *args,
           "--commit", commit_id(), "--out-dir", out_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"enginebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

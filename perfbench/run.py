#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload figures-cold --seed 0 --seconds 25 --trace 0

Builds two release binaries into $CARGO_TARGET_DIR (default .bench_build):
the harness in perfbench/ and the repository's `paper` binary, which the
daemon-warm workload starts as `paper serve`. Then it replaces itself with
the harness, passing every argument through. Build output goes to stderr;
the harness's last line of stdout is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", manifest] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, CARGO_TARGET_DIR=target))
    if proc.returncode != 0:
        sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
        sys.exit(2)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target, os.path.join(ROOT, "perfbench", "Cargo.toml"), [])
    build(target, os.path.join(ROOT, "Cargo.toml"), ["--bin", "paper"])
    harness = os.path.join(target, "release", "perfbench")
    paper = os.path.join(target, "release", "paper")
    # Relative to the root, so the daemon's socket path stays short.
    work = os.path.relpath(os.path.join(target, "perfbench-work"), ROOT)
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(harness, [harness] + sys.argv[1:] + ["--paper", paper, "--work", work])


if __name__ == "__main__":
    main()

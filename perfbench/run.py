#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `rr-serve` daemon (the
repository's own workspace) and the `perfbench` harness (its own
workspace, depending on the repository's crates by path) in release
mode, into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
harness. The harness prints the result object as the last line of
standard output; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args):
    # Cargo writes progress to stderr; keep stdout for the result.
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                       cwd=ROOT, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed: cargo build " + " ".join(args))


def main():
    for need in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a full checkout")
    # Cargo runs in ROOT, so a relative CARGO_TARGET_DIR is relative to it.
    target = os.path.join(ROOT, os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build(["-p", "rr-serve", "--bin", "rr-serve"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    # The harness runs the rr-serve binary built next to it.
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:]]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

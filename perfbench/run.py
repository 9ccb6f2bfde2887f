#!/usr/bin/env python3
"""Build the TVDP platform benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload upload --seed 1 --seconds 10 --trace 0

The Go toolchain's build cache and the binary live under .bench_build/
(or $CARGO_TARGET_DIR when set), so the benchmark reads and writes only
inside the checkout. Every argument is passed through to the binary.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOENV="off",
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "tvdp-perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=bench, env=env
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    commit = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    except OSError:
        pass
    args = [binary, "--commit", commit, "--workdir", build] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

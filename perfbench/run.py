#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload regional --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, and the traced runs' spans and CPU
profiles all go under $CARGO_TARGET_DIR (default .bench_build), so the
benchmark reads and writes only inside the checkout. See README.md.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    exe = os.path.join(build, "perfbench")
    # Build output goes to stderr: the last stdout line is the result.
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    run = subprocess.run([exe, "-out", os.path.join(build, "trace"), *sys.argv[1:]], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

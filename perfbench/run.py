#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload web-cached --seed 1 --seconds 10 --trace 0

The Go program in this directory is compiled against the repository's
module (go.mod replaces "hybrid" with the parent directory) into
.bench_build/, with the Go build cache and temporary files kept there
too, so the benchmark reads and writes only inside the checkout.
Arguments are passed through; see main.go for what they mean. Exits
non-zero without a result when the build fails, for example outside a
checkout of the repository.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A run must end within 180 s; one that has not is killed as a hang.
RUN_TIMEOUT_S = 170


def main():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the system under test and the benchmark program, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 30 --trace 0

Everything the build and the runs write goes under .bench_build/ at the
repository root: the Go build cache, the uopsimd/uopgate/perfbench
binaries, per-run warehouses, process logs and span dumps. Build output
goes to standard error, so the last line of standard output is the
program's JSON result. A failed build exits non-zero without a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    for d in (bindir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    steps = [
        (root, ["go", "build", "-o", os.path.join(bindir, "uopsimd"), "./cmd/uopsimd"]),
        (root, ["go", "build", "-o", os.path.join(bindir, "uopgate"), "./cmd/uopgate"]),
        (here, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        if not os.path.isfile(os.path.join(cwd, "go.mod")):
            print("perfbench: %s has no go.mod; run from a full checkout" % cwd, file=sys.stderr)
            return 2
        rc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode
        if rc != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return rc
    prog = os.path.join(bindir, "perfbench")
    args = [prog, "-bin", bindir, "-work", os.path.join(build, "runs")] + sys.argv[1:]
    os.chdir(root)
    os.execve(prog, args, env)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Builds the Go program in perfbench/ against the library source at the root
of the checkout, runs it, and passes its output through: the last line of
standard output is the JSON result. Everything the build and the run write
stays in .bench_build/ at the root of the checkout, Go's caches included.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 850  # seconds; a first build compiles the standard library
RUN_TIMEOUT = 170


def go_binary():
    go = shutil.which("go")
    if go is None and os.path.exists("/usr/local/go/bin/go"):  # the Go distribution's default location
        go = "/usr/local/go/bin/go"
    return go


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["scan", "serve", "ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    go = go_binary()
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no library source at " + ROOT, file=sys.stderr)
        return 1
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=os.path.join(ROOT, "perfbench"),
                               env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", workdir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

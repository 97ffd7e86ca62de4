#!/usr/bin/env python3
"""Build and run the AltOS benchmark from the root of a source checkout.

    python3 altbench/run.py --workload session|scavenge|serve|rebuild \
        --seed N --seconds S --trace 0|1

Builds altbench/main.exe with dune from the sources next to it, then
runs it with the same arguments. A traced run (--trace 1) also writes
the benchmark's spans as a Chrome trace to altbench/out/<workload>.trace.json.
The last line of standard output is the run's JSON result; build output
goes to standard error. Exits non-zero, printing no result, when the
directory is not a checkout of the repository or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./altbench/main.exe"
WORKLOADS = ("session", "scavenge", "serve", "rebuild")


def fail(msg):
    print("altbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH and opam is not available to find it")


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("%s is not a checkout of the AltOS sources (no dune-project and lib/ beside altbench/)" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command() + ["build", "--root", ROOT, TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)
    args = list(argv)
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    if traced and workload in WORKLOADS:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        args += ["--trace-file", os.path.join(out, workload + ".trace.json")]
    exe = os.path.join(ROOT, "_build", "default", "altbench", "main.exe")
    run = subprocess.run([exe] + args, cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

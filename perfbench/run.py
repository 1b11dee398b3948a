#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py bless

Builds perfbench/main.exe and its machine-speed kernel calib.exe with
dune from the repository this file lives in, then runs main.exe from
the repository root.  Everything the run writes
(dune's _build, temporary stores, per-run details and spans) stays
inside the repository: _build/ and _perfbench/.  The last line of
standard output is the result object; build output goes to stderr.
Exits 2 without a result when the repository sources are not there.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
REQUIRED = ["dune-project", "lib", "bin", "examples/programs/ast.dpl", "perfbench/dune"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, env, **kw):
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, **kw)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a dpower source tree (missing " + ", ".join(missing) + ")")
    scratch = os.path.join(ROOT, "_perfbench")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = scratch
    env["DUNE_CACHE"] = "disabled"
    env["DPOWER_CACHE_DIR"] = os.path.join(scratch, "cache")
    env.setdefault("PERFBENCH_COMMIT", commit())
    if run(["dune", "build", "--root", ".", "./perfbench/main.exe", "./perfbench/calib.exe"], env,
           stdout=sys.stderr) != 0:
        fail("build failed")
    sys.stdout.flush()
    sys.exit(run([os.path.join(ROOT, EXE)] + sys.argv[1:], env))


if __name__ == "__main__":
    main()

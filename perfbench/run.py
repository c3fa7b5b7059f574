#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload check|trace|dpor|infer \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (release profile, build directory
$CARGO_TARGET_DIR or .bench_build, dune cache off so nothing is written
outside the checkout), then runs it. The last line of standard output is
the JSON result; see perfbench/NOTES.md for the workloads and metrics.
Exits 2 when the checkout holds no repository sources to build.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def commit():
    """The git commit, or a digest of lib/ when the checkout is not a git
    repository (so every result still names the code it measured)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        h = hashlib.sha1()
        lib = os.path.join(ROOT, "lib")
        for d, dirs, files in sorted(os.walk(lib)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
        return "lib-sha1:" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["check", "trace", "dpor", "infer"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no repository sources to build "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
         "--profile", "release", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "perfbench-work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    env["PERFBENCH_NPROC"] = str(os.cpu_count() or 0)
    env["PERFBENCH_COMMIT"] = commit()
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--expected", os.path.join(ROOT, "perfbench", "expected.tsv"),
             "--work-dir", work_dir],
            cwd=ROOT, env=env)
        return run.returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

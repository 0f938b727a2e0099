#!/usr/bin/env python3
"""Build and run the midrr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a midrr checkout.  The script builds
perfbench/main.exe from source with dune (into $CARGO_TARGET_DIR when set,
else _build), runs one workload and passes its output through: the last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}.  Traced runs (--trace 1) also write their spans as a Chrome
trace to perfbench/out/.  Exits non-zero, printing no result, when the
build or the run fails.  See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-telemetry", "bridge-fig9", "fleet-churn")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def toolchain_env():
    """PATH with an OCaml toolchain on it, and dune's shared cache off so
    the build writes only inside the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune", path=env.get("PATH")):
        return env
    dirs = []
    if env.get("OPAM_SWITCH_PREFIX"):
        dirs.append(os.path.join(env["OPAM_SWITCH_PREFIX"], "bin"))
    dirs += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin")), reverse=True)
    for d in dirs:
        if os.path.exists(os.path.join(d, "dune")):
            env["PATH"] = d + os.pathsep + env.get("PATH", "")
            return env
    fail("no dune found on PATH or in an opam switch")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library sources, so every result names the code it measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(ROOT, "lib", "**", "*.ml*"), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib", "core"))):
        fail("run from the root of a midrr checkout (no dune-project or lib/core here)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        # dune's progress output goes to stderr so stdout stays the result
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    return exe if os.path.isabs(exe) else os.path.join(ROOT, exe)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    env = toolchain_env()
    exe = build(env)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--nproc", str(os.cpu_count() or 1)]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

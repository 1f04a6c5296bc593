#!/usr/bin/env python3
"""End-to-end benchmark of atalib's serving stack.

    python3 perfbench/run.py --workload gram_large|batch_tall|serve_small \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the benchmark's self-test, then runs one workload with the tuner
pinned to perfbench/tuning_cache.txt through ATALIB_TUNING_CACHE. The last
line of standard output is the result object; the line before it stamps
the host, build and pinned values. Exits nonzero if the machine has fewer
than 4 CPUs, if the library sources are missing, or if any check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gram_large", "batch_tall", "serve_small")
SLOTS = 4  # server slots: 3 busy workers plus the client, which blocks
RUN_TIMEOUT_S = 170
# Settings that change what the library runs; the benchmark measures the
# default configuration, so they are removed from its environment.
CLEARED_ENV = ("ATALIB_FORCE_SCALAR_KERNELS", "ATALIB_FAULTS", "ATALIB_FAKE_NUMA")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def source_id():
    """Git sha when the tree is a git checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def build():
    """Configure once, then bring the build up to date. Returns the build dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources (CMakeLists.txt, src/) not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", bdir, "-j", str(SLOTS)],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    cpus = len(os.sched_getaffinity(0))
    if cpus < SLOTS:
        fail(f"{cpus} CPUs available; the benchmark keeps {SLOTS - 1} threads busy "
             f"and needs at least {SLOTS} so it never oversubscribes", 3)

    bdir = build()
    if subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("self-test failed")

    # The tuner may rewrite its cache file; give it a fresh copy of the pin.
    pins = os.path.join(HERE, "tuning_cache.txt")
    cache = os.path.join(bdir, "tuning_cache.txt")
    shutil.copyfile(pins, cache)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["ATALIB_TUNING_CACHE"] = cache

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--pins", pins, "--source-id", source_id()]
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(bdir, "traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--corrupt-reference] [--record PATH]

Run from the root of a checkout.  The library and the perfbench driver are
built with CMake (RelWithDebInfo) into .bench_build/perfbench; the first run
builds, later runs only relink what changed.  Build output goes to stderr,
so the last line of stdout is the driver's JSON result.  Every argument is
forwarded to the driver, together with the revision stamp: a digest of the
sources, after the git commit when the checkout is a git repository.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures once and builds; returns the failing step's exit code."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        code = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode
        if code != 0:
            return code
    return 0


def revision():
    """A digest of every source file the build reads, after the git commit
    when the checkout is a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    stamp = "src:" + digest.hexdigest()[:16]
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            stamp = "git:" + out.stdout.strip()[:12] + " " + stamp
        except (OSError, subprocess.CalledProcessError):
            pass
    return stamp


def main(argv):
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    # The library reads EXPRESSO_* knobs (threads, GC, tracing, cache sizes)
    # from the environment; a run measures the defaults only.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EXPRESSO_")}
    cmd = [BINARY, *argv, "--revision", revision()]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

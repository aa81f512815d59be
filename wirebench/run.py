#!/usr/bin/env python3
"""Wire-path benchmark for the feasibility advisor service.

Builds the service (`example_feasibility_advisor`) and the `wirebench`
client from the sources of the checkout it sits in, then runs one workload:

    python3 wirebench/run.py --workload bulk_sweep --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics (untraced wire run); --trace 1 prints
the per-layer metrics (wire counters plus the traced in-process run). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to stderr; build files and run
artifacts (captured service stderr, Chrome traces) go to .bench_build/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wirebench")
WORKLOADS = ("bulk_sweep", "insitu_loop", "recalibrate")
# Sources whose content identifies the measured build.
FINGERPRINT_DIRS = ("src", "examples", "wirebench")


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources that go into the build."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in FINGERPRINT_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "wirebench",
                    "example_feasibility_advisor"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "examples/feasibility_advisor.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no repository sources here (missing %s); nothing to build" % needed)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [os.path.join(BUILD, "wirebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--advisor", os.path.join(BUILD, "example_feasibility_advisor"),
           "--out", runs, "--commit", commit_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

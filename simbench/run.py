#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload scalar-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The first call configures and
builds simbench/ and the simulator library it links into .bench_build/
(CMake, Release); later calls rebuild only what changed. Build output
goes to standard error. Every argument is passed on to the simbench
binary, whose last line of standard output is the JSON result. Exits
non-zero, printing no result, when the simulator sources are missing
or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(ROOT, "tests", "golden", "timing_parity_small.txt")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Path of the built binary, or None when it cannot be built."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources not found at " + os.path.join(ROOT, "src"))
        return None
    cmds = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds.append(["cmake", "--build", BUILD, "--target", "simbench",
                 "-j", jobs])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "simbench")


def commit():
    """The checkout's git commit, or "none" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """Digest of the sources the binary is built from and checks against."""
    h = hashlib.sha256()
    for top in ("src", "simbench", os.path.join("tests", "golden")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--golden", GOLDEN, "--out-dir", OUT,
           "--commit", commit(), "--source", source_digest(), *sys.argv[1:]]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_1ch --seed 1 --seconds 10 --trace 0

The driver (perfbench/driver.cpp) is compiled together with the simulator
libraries under src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr; the driver's stdout
passes through, and its last line is the JSON result. Exits 2 without a
result when the simulator sources or the build are missing.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("sweep_1ch", "sweep_8ch2r4s", "lifecycle_fault", "fleet")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def source_fingerprint():
    """Git commit when available (with "-dirty" and the source digest when
    the tree has uncommitted changes), else the source digest."""
    if os.path.isdir(".git"):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], capture_output=True,
                                    text=True, check=True).stdout.strip()
            return head if not status else f"{head}-dirty-{source_digest()}"
        except (OSError, subprocess.CalledProcessError):
            pass
    return source_digest()


def source_digest():
    """Digest of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "mecc_perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        return fail("run from the repository root: src/CMakeLists.txt not found")
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        return fail("perfbench/CMakeLists.txt not found")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        return fail("build failed")
    exe = os.path.join(build_dir, "mecc_perfbench")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--state-dir", os.path.join(build_dir, f"fleet-state-{os.getpid()}")]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(build_dir, "spans",
                                            f"{args.workload}-s{args.seed}.json")]
    env = dict(os.environ, PERFBENCH_COMMIT=source_fingerprint())
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())

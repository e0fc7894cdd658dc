#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench program against this checkout's src/ (first run only;
later runs reuse the build) and runs one workload:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of stdout is the result object; the line before it records
nproc, build type, a hash of src/, workload, seed, sample counts and the
correctness-gate tallies. Exit code 0 means the run finished, not that it
was correct: read "correct".

  python3 perfbench/run.py --self-test

checks the benchmark itself: a client that skips lock() on a seeded
schedule must make the exclusivity witness report the run incorrect, and
the same run without the bug must be correct.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/
perfbench), relative to the checkout root.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tcp-pingpong", "threaded-zipf", "threaded-crash")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_hash():
    """sha256 over src/ and the root CMakeLists.txt, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "CMakeLists.txt")):
        fail("no src/ or CMakeLists.txt next to perfbench/; "
             "run from a dagmx checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark program; returns (meta, result) or exits on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--revision", "src-sha256:" + source_hash(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("perfbench exited with %d" % proc.returncode)
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    return meta, result


def self_test(binary):
    """Every gate stays quiet on a clean run; a client that skips lock()
    makes the run incorrect, and on the multi-resource workloads the
    exclusivity witness is what catches it. (On tcp-pingpong a skipper's
    zero-length critical section falls while the peer's token is still on
    the wire, so there the entry-count gate catches it instead.)"""
    ok = True
    for workload, witness_must_fire in (("tcp-pingpong", False),
                                        ("threaded-zipf", True),
                                        ("threaded-crash", True)):
        for skip in (0, 16):
            meta, result = run_once(binary, workload, 7, 2, 0,
                                    ("--skip-lock-every", str(skip)))
            gates = meta["meta"]["gates"]
            tripped = [k for k, v in gates.items() if v]
            if skip == 0:
                passed = result["correct"] and not tripped
            else:
                passed = not result["correct"] and (
                    gates["witness_violations"] > 0 or not witness_must_fire)
            ok &= passed
            print("%-14s skip-lock-every=%-2d correct=%-5s gates tripped: %s"
                  " -> %s" % (workload, skip, result["correct"],
                              ", ".join("%s=%s" % (k, gates[k])
                                        for k in tripped) or "none",
                              "ok" if passed else "UNEXPECTED"))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    if args.self_test:
        return self_test(binary)
    meta, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of keddah: builds the benchmark binary from this
checkout's sources, runs one workload in a fresh process and prints one JSON
result line (the last line of stdout).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pipeline-testbed, replay-scaleup, scale-fattree, whatif-serve
(see perfbench/README.md). The build goes to .bench_build/perfbench in the
checkout; spill files and span dumps go to .bench_build/work.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("pipeline-testbed", "replay-scaleup", "scale-fattree", "whatif-serve")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
RUN_TIMEOUT_S = 170

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "keddah_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no keddah sources at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_CXX_FLAGS") and "-fsanitize" in line:
                fail("refusing to time a sanitizer build (" + line.strip() + ")")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "keddah_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_identity():
    """The commit when the checkout is a git repository, else a digest of src/."""
    try:
        top, head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                                   capture_output=True, text=True, check=True,
                                   timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_bench(args):
    """Runs the binary and returns its last stdout line parsed, plus the
    record line before it."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("keddah_perfbench exited with %d (%s)" % (proc.returncode, " ".join(args)))
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail("keddah_perfbench printed nothing (%s)" % " ".join(args))
    return json.loads(lines[-1]), (json.loads(lines[-2]) if len(lines) > 1 else {})


def toolchain_fidelity(seed):
    """The fidelity pair at `seed`, measured once per seed and binary.

    It is deterministic in the two, so it is kept under .bench_build keyed by
    the binary's digest and the seed, and later runs of any workload reuse it.
    """
    with open(BINARY, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(WORK_DIR, "fidelity-%s-%d.json" % (binary, seed))
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    fidelity, _ = run_bench(["--fidelity-only", "--seed", str(seed)])
    with open(path + ".tmp", "w") as f:
        json.dump(fidelity, f)
    os.replace(path + ".tmp", path)
    return fidelity


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; held-out seed %d)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    result, record = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", repr(args.seconds), "--trace", str(args.trace),
                                 "--work-dir", WORK_DIR])
    if args.trace == 0 and args.workload != "pipeline-testbed":
        # Every workload reports the toolchain's fidelity at its seed. The
        # pipeline measures it in its own passes; for the others it is one
        # untimed pipeline measurement in a separate process, so it touches
        # neither their timings nor their peak RSS.
        fidelity = toolchain_fidelity(args.seed)
        result["metrics"]["fidelity_volume_err"] = {
            "value": fidelity["fidelity_volume_err"], "unit": "ratio"}
        result["metrics"]["fidelity_size_ks"] = {
            "value": fidelity["fidelity_size_ks"], "unit": "ks_d"}

    record = dict(record.get("record", {}))
    record["commit"] = source_identity()
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

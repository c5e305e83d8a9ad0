#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload suite_verify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run builds the
benchmark (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs reuse that build. Every run gets
a private directory under the build directory for the daemon socket, the
artifact and native object caches and the host compiler's temporary files,
and removes it at exit. The benchmark runs with address-space
randomization off, so memory layout is the same in every run. Traced runs
(--trace 1) leave their Chrome trace file under <build dir>/traces/.

The last line of standard output is the benchmark's JSON result; build
logs go to standard error. Extra options (--mix-seed, --env-seed,
--fuzz-seed, --fuzz-iterations) pass through to the binary.
"""

import argparse
import ctypes
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BINARY = "slp-perfbench"
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def fixed_layout():
    """Turns address-space randomization off for the benchmark process (a
    personality flag, inherited across exec), so that code and heap
    placement, and the cache conflicts that come with them, are the same in
    every run. Left on where the kernel refuses."""
    try:
        libc = ctypes.CDLL(None)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def build(out_dir, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources under %s/src; run from the root "
                           "of a source checkout" % ROOT)
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", cmake_dir, "--target", BINARY,
                        "-j", "4"], check=True, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    # The library's behaviour must not depend on the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SLP_")}
    tmp_root = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    env["TMPDIR"] = tmp_root
    try:
        binary = build(out_dir, env)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    runs = os.path.join(out_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        os.makedirs(os.path.join(work, "tmp"))
        env["TMPDIR"] = os.path.join(work, "tmp")
        env["SLP_NATIVE_CACHE_DIR"] = os.path.join(work, "native")
        cmd = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--workdir", work] + extra
        if args.trace == "1":
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%s.json" % (args.workload, args.seed))]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  timeout=RUN_TIMEOUT_S,
                                  preexec_fn=fixed_layout)
        except subprocess.TimeoutExpired:
            log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
            return 1
        if proc.returncode != 0:
            sys.stderr.buffer.write(proc.stdout)
            log("benchmark exited with code %d" % proc.returncode)
            return 1
        sys.stdout.buffer.write(proc.stdout)
        sys.stdout.flush()
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

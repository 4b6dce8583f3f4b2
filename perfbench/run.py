#!/usr/bin/env python3
"""Build and run the wsel throughput benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a wsel source tree.  The first call configures and
builds perfbench/ (the library, wsel_worker and the harness) into
.bench_build/perfbench; later calls only rebuild what changed.  Each run
gets a fresh directory under .bench_build/perfbench-runs for its caches,
campaign outputs and sockets, removed when it ends; output digests and
spans are kept under .bench_build/perfbench-state.  Every run also
checks a fixed reference campaign against perfbench/reference_digests.txt.  No WSEL_*
variable of the caller reaches the harness.

The last line of standard output is the result JSON.  The exit status is
0 when the outputs checked correct, non-zero otherwise; a tree without
the wsel sources fails without a result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "perfbench-runs")
STATE = os.path.join(ROOT, ".bench_build", "perfbench-state")
REFERENCE = os.path.join(ROOT, "perfbench", "reference_digests.txt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def jobs():
    return max(1, min(os.cpu_count() or 1, 4))


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("WSEL_")}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no wsel sources next to perfbench/ (src/CMakeLists.txt missing)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs())])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if rc != 0:
            log("build step failed (%d): %s" % (rc, " ".join(cmd)))
            return False
    return True


def source_id():
    """A hash of the sources the benchmark builds, plus git HEAD if any.

    The hash covers uncommitted edits, so it names the code that ran
    whether or not it is committed.
    """
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "tree:" + h.hexdigest()[:16]
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            ident += ",git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ident


def run_child(cmd, env):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; killing it" % RUN_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the output-check self-test and exit")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    env = clean_env()
    if not build(env):
        return 1
    sys.stdout.flush()

    if args.selftest:
        work = os.path.join(RUNS, "selftest-%d" % os.getpid())
        try:
            return run_child([os.path.join(BUILD, "perfbench_selftest"),
                              work], env)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    run_dir = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(STATE, exist_ok=True)
    cmd = [os.path.join(BUILD, "wsel_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", os.path.relpath(run_dir, ROOT),
           "--state-dir", os.path.relpath(STATE, ROOT),
           "--worker-bin", os.path.join(BUILD, "wsel_worker"),
           "--reference", os.path.relpath(REFERENCE, ROOT),
           "--source-id", source_id()]
    try:
        return run_child(cmd, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

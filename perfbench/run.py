#!/usr/bin/env python3
"""Run one workload of the Genie benchmark.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

Builds the daemon (bin/genie_cli.exe) and the driver (perfbench/bench.exe)
from source with dune into .bench_build/, then runs the driver from the
repository root. The driver prints a context stamp and, as the last line of
standard output, the result object; it writes the same plus traced spans
under perfbench/out/. Exits non-zero, without a result line, when the
build fails or the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-cold", "serve-hot")


def build():
    cmd = ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD_DIR),
           "--profile", "release", "./bin/genie_cli.exe", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def source_rev():
    """The git commit when there is one, plus a digest of the sources, which
    also identifies a checkout that is not a git repository."""
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and (path.suffix in (".ml", ".mli", ".py") or path.name == "dune"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    rev = "tree-" + h.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.strip()
            rev = f"{head} {rev}"
        except (OSError, subprocess.CalledProcessError):
            pass
    return rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=0.2,
                    help="pipeline scale of the served model (the smoke test shrinks it)")
    args = ap.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [str(BUILD_DIR / "default" / "perfbench" / "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale),
           "--daemon", str(BUILD_DIR / "default" / "bin" / "genie_cli.exe"),
           "--out", str(ROOT / "perfbench" / "out"),
           "--rev", source_rev(), "--nproc", str(len(os.sched_getaffinity(0)))]
    # Its own session, so a timeout or a signal takes the daemon down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *a: (kill_group(), sys.exit(143)))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        kill_group()
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())

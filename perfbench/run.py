#!/usr/bin/env python3
"""Builds libspar's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_grid --seed 1 --seconds 15 --trace 0

Run from the root of a libspar checkout. The first call configures and
builds perfbench/ (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls only rebuild what changed. Inputs, the server
socket and traces go to <build dir>/perfbench-out. The last line of stdout
is the run's JSON result; build output goes to stderr. See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sparsify_dense", "serve_grid", "partition_grid")


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds perfbench + solver_server; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        sys.exit("perfbench: no libspar sources next to perfbench/; run from a checkout")
    bdir = os.path.join(build_base(), "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "solver_server",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over src/ (paths and contents): names the code measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", default="", help="self-test fault injection")
    args = ap.parse_args()

    binary = build()
    out_dir = os.path.join(build_base(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    # Relative to the working directory: keeps the UNIX socket path short.
    out_rel = os.path.relpath(out_dir, ROOT)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace, "--out=" + out_rel,
           "--commit=" + git_commit(), "--source-digest=" + source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt=" + args.corrupt)
    env = dict(os.environ)
    if args.workload == "serve_grid":
        # Idle OpenMP threads sleep, in the benchmark and in the daemon it
        # spawns. The daemon's connection thread and its pool worker each run
        # a 4-thread team on the 4 cores. With spinning idle threads a request
        # frame's checksum waited for cores the solve team held, a wave's
        # frames straddled the batch deadline, and batches split at random.
        env["OMP_WAIT_POLICY"] = os.environ.get("PB_POLICY", "passive")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

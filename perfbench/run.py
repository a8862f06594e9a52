#!/usr/bin/env python3
"""Build and run the randla benchmark for one workload.

    python3 perfbench/run.py --serve-cold-rate R1 --cluster-hot-rate R2 \
        --workload lowrank_tall|serve_cold|cluster_hot --seed N \
        --seconds S --trace 0|1 [--smoke] [--perturb]

Run from the repository root. The first call configures and builds the
perfbench binary (the randla library from src/ plus perfbench/src/) into
.bench_build/perfbench; later calls only check that it is up to date.
Build output goes to stderr. The binary's output is passed through, so the
last line of stdout is the JSON result. The exit code is the binary's:
non-zero on a failed operation, a failed correctness check, a failed
build, or a run that overstays its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build; False when anything fails."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: randla sources (src/) not found next to perfbench/",
              file=log)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=log, stderr=log).returncode != 0:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=log, stderr=log).returncode == 0


def revision():
    """git revision when the root is itself a git checkout, else a digest
    of the sources the binary was built from."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["lowrank_tall", "serve_cold", "cluster_hot"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--serve-cold-rate", type=float,
                   help="offered requests/s of serve_cold")
    p.add_argument("--cluster-hot-rate", type=float,
                   help="offered requests/s of cluster_hot")
    p.add_argument("--smoke", action="store_true",
                   help="tiny shapes, for the benchmark's own test")
    p.add_argument("--perturb", action="store_true",
                   help="corrupt one checked result; the run must fail")
    args = p.parse_args()

    rate = {"serve_cold": args.serve_cold_rate,
            "cluster_hot": args.cluster_hot_rate}.get(args.workload)
    if args.workload != "lowrank_tall" and not rate:
        p.error("--%s-rate is required" % args.workload.replace("_", "-"))

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--revision", revision()]
    if rate:
        cmd += ["--rate", repr(rate)]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb:
        cmd.append("--perturb")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: perfbench ran past %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--workload NAME]

Builds perfbench/ (which builds the aesz library from the repository's own
CMake files) into $CARGO_TARGET_DIR/perfbench (default .bench_build), runs
the benchmark binary and passes its output through; the last stdout line is
the result object. The metric names and units in it are checked against
BENCHMARK.json. --self-test proves the output checks bite: every workload
is run with one decoded value pushed past its bound and with one stream
byte flipped, and each of those runs must fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["aesz-snapshots", "archive-series", "service-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "aesz_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "aesz_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(binary, workload, seed, seconds, trace, inject=None):
    """Run the binary once; returns (exit code, stdout lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(build_dir() / "perfbench-out")]
    if inject:
        cmd += ["--inject", inject]
    # The network layers run one thread per caller; set-up training raises
    # its own team size explicitly.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def self_test(binary, workloads):
    ok = True
    for workload in workloads:
        for inject in ("bound", "flip"):
            code, _, result = run(binary, workload, 1, 1, False, inject)
            bit = code != 0 and result is not None and not result["correct"]
            log(f"self-test {workload} --inject {inject}: "
                f"{'fails as it must' if bit else 'NOT DETECTED'}")
            ok &= bit
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject", choices=["bound", "flip"])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary, [args.workload] if args.workload
                                else WORKLOADS) else 1)
    if not args.workload:
        ap.error("--workload is required")

    code, lines, result = run(binary, args.workload, args.seed, args.seconds,
                              args.trace == 1, args.inject)
    if result is None:
        log("no result line")
        sys.exit(code or 1)
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(want.items()))}")
        sys.exit(3)
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

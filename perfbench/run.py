#!/usr/bin/env python3
"""Build and run Usher's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-exec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds the benchmark (perfbench/CMakeLists.txt, on top of
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload, and copies the program's report to standard output. The
last line is the result object; its metric names are checked against
BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1).

--self-test runs all four workloads at tiny sizes on two seeds, traced and
untraced, and checks that every run is correct, that the metric names match
BENCHMARK.json, and that each workload keeps its shape across seeds: the
same VFG-size band and the same largest layer.

Exit status is 0 on success; on any build, run or check failure it is
non-zero and no result line is printed.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["suite-exec", "synth-large", "pta-deref", "serve-edit"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build(bdir):
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/: run from the root of a full checkout")
    cmds = []
    if not (bdir / "CMakeCache.txt").is_file():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                 "-j", "4"])
    for cmd in cmds:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: %s" % " ".join(cmd))
    return bdir / "perfbench"


def expected_metrics(trace):
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(exe, workload, seed, seconds, trace, tiny=False):
    """Runs the benchmark binary; returns (report lines, result object)."""
    out_dir = exe.parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(out_dir)]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("%s exited with status %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not a result object" % workload)
    check_result(result, trace)
    return lines, result


def check_result(result, trace):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    names = list(result["metrics"])
    want = expected_metrics(trace)
    if names != want:
        fail("metric names %s do not match BENCHMARK.json %s" % (names, want))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s has no finite value" % name)


def shape_of(lines):
    for line in lines:
        if line.startswith("shape "):
            return json.loads(line[len("shape "):])
    fail("traced run printed no shape line")


def self_test(exe):
    ok = True
    for w in WORKLOADS:
        shapes = []
        for seed in (1, 2):
            for trace in (False, True):
                lines, result = run_once(exe, w, seed, 1, trace, tiny=True)
                good = result["correct"] and result["failed"] == 0
                ok &= good
                if trace:
                    shapes.append(shape_of(lines))
                print("%-12s seed %d trace %d: %s, %d operations checked" %
                      (w, seed, trace, "ok" if good else "FAILED",
                       result["attempted"]))
        a, b = shapes
        band = max(a["vfg_nodes"], b["vfg_nodes"]) <= 1.5 * max(
            1.0, min(a["vfg_nodes"], b["vfg_nodes"]))
        same_top = a["top_layers"][:1] == b["top_layers"][:1]
        ok &= band and same_top
        print("%-12s shape: vfg_nodes %.0f vs %.0f (%s), top layers %s vs %s (%s)" %
              (w, a["vfg_nodes"], b["vfg_nodes"], "same band" if band else "DIFFERENT BAND",
               a["top_layers"], b["top_layers"], "same" if same_top else "DIFFERENT"))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    exe = build(build_dir())
    if args.self_test:
        return self_test(exe)
    lines, _ = run_once(exe, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

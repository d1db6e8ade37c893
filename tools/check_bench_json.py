#!/usr/bin/env python3
"""Schema validator for the benchmark harness JSON reports.

Dispatches on the report's "schema" tag:
  usher-bench-solver-v1    bench_solver's BENCH_solver.json
  usher-bench-scale-v1     bench_scale's BENCH_scale.json

Usage:
  check_bench_json.py FILE.json              validate an existing report
  check_bench_json.py --run-smoke BENCH_BIN  run `BENCH_BIN --smoke` into a
                                             temp file, then validate it

The bench-smoke ctests use --run-smoke so the benchmark harnesses and
their machine-readable output stay covered without burning tier-1 time on
the full workload sizes. Speedup thresholds are deliberately NOT enforced
(tiny smoke sizes measure nothing); the summary must merely be
well-formed — EXPERIMENTS.md records and interprets the measured numbers.
"""

import json
import subprocess
import sys
import tempfile
import os

ENGINE_FIELDS = [
    "solve_ms",
    "total_ms",
    "propagations",
    "pops",
    "skipped_merged_pops",
    "collapses",
    "collapsed_nodes",
    "unified_cells",
    "budget_steps",
    "avg_pts_size",
    "plan_checks",
    "warnings",
]


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_engine(workload, key):
    engine = workload.get(key)
    if not isinstance(engine, dict):
        fail(f"workload {workload.get('name')!r}: missing engine block {key!r}")
    for field in ENGINE_FIELDS:
        value = engine.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(
                f"workload {workload.get('name')!r} engine {key!r}: "
                f"field {field!r} missing or non-numeric: {value!r}"
            )
        if value < 0:
            fail(
                f"workload {workload.get('name')!r} engine {key!r}: "
                f"field {field!r} negative: {value!r}"
            )
    # The solve phase is a sub-interval of the whole construction.
    if engine["solve_ms"] > engine["total_ms"] + 1e-6:
        fail(
            f"workload {workload.get('name')!r} engine {key!r}: solve_ms "
            "exceeds total_ms"
        )
    # The worklist accounting invariant only constrains the Andersen
    # engines; the unification solver's pops are class-representative
    # merges with their own charging discipline.
    if key != "unify" and engine["pops"] > (
        engine["budget_steps"] + engine["skipped_merged_pops"]
    ):
        fail(
            f"workload {workload.get('name')!r} engine {key!r}: pops exceed "
            "charged steps plus uncharged merged-pop skips"
        )
    if key != "unify" and engine["unified_cells"] != 0:
        fail(
            f"workload {workload.get('name')!r} engine {key!r}: Andersen "
            "engine reports unified cells"
        )
    return engine


def check_summary(report):
    summary = report.get("summary")
    if not isinstance(summary, dict):
        fail("missing 'summary'")
    for field in ("min_speedup", "geomean_speedup"):
        value = summary.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"summary: bad {field!r}: {value!r}")
    if summary["min_speedup"] > summary["geomean_speedup"] + 1e-9:
        fail("summary: min_speedup exceeds geomean_speedup")


def check_common_header(report):
    if not isinstance(report.get("smoke"), bool):
        fail("missing boolean 'smoke' flag")
    if not isinstance(report.get("iterations"), int) or report["iterations"] < 1:
        fail("missing positive integer 'iterations'")


def check_solver_report(report, path):
    check_common_header(report)
    workloads = report.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        fail("'workloads' missing or empty")
    names = set()
    for workload in workloads:
        name = workload.get("name")
        if not isinstance(name, str) or not name:
            fail("workload with missing name")
        if name in names:
            fail(f"duplicate workload name {name!r}")
        names.add(name)
        for field in ("nodes", "constraints"):
            if not isinstance(workload.get(field), int) or workload[field] <= 0:
                fail(f"workload {name!r}: bad {field!r}: {workload.get(field)!r}")
        naive = check_engine(workload, "naive")
        optimized = check_engine(workload, "optimized")
        unify = check_engine(workload, "unify")
        for field in ("speedup", "unify_speedup"):
            value = workload.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"workload {name!r}: bad {field!r}: {value!r}")
        # Both Andersen engines solve the identical constraint system;
        # collapsing only ever reduces worklist traffic.
        if optimized["pops"] > 4 * naive["pops"] + 16:
            fail(
                f"workload {name!r}: optimized pop count wildly exceeds the "
                "reference's — difference propagation is not working"
            )
        # ...and so they must reach the identical fixpoint: equal points-to
        # sets, hence equal plans and equal runtime warnings.
        for field in ("avg_pts_size", "plan_checks", "warnings"):
            if optimized[field] != naive[field]:
                fail(
                    f"workload {name!r}: optimized {field} "
                    f"{optimized[field]!r} differs from naive "
                    f"{naive[field]!r} — the Andersen engines disagree"
                )
        # Unification may only lose precision, never gain it, and the
        # warnings the pipeline reports at runtime are ground truth — the
        # engine must not change them.
        if unify["avg_pts_size"] + 1e-9 < optimized["avg_pts_size"]:
            fail(
                f"workload {name!r}: unify points-to sets are smaller than "
                "Andersen's — the over-approximation is broken"
            )
        if unify["plan_checks"] < optimized["plan_checks"]:
            fail(
                f"workload {name!r}: unify plan has fewer checks than "
                "Andersen's — unsound check elision"
            )
        if unify["warnings"] != optimized["warnings"]:
            fail(
                f"workload {name!r}: runtime warning count depends on the "
                "constraint engine"
            )

    check_summary(report)
    for field in ("min_unify_speedup", "geomean_unify_speedup"):
        value = report["summary"].get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"summary: bad {field!r}: {value!r}")
    if (
        report["summary"]["min_unify_speedup"]
        > report["summary"]["geomean_unify_speedup"] + 1e-9
    ):
        fail("summary: min_unify_speedup exceeds geomean_unify_speedup")
    print(f"check_bench_json: OK: {path} ({len(workloads)} workloads)")


SCALE_CONFIGS = [
    "andersen-global",
    "unify-global",
]

SCALE_PHASES = [
    "pointer_analysis_ms",
    "memory_ssa_ms",
    "vfg_ms",
    "definedness_ms",
    "opt2_ms",
]


def check_scale_report(report, path):
    check_common_header(report)
    hw = report.get("hardware_concurrency")
    if not isinstance(hw, int) or hw < 1:
        fail(f"missing positive integer 'hardware_concurrency': {hw!r}")

    sizes = report.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        fail("'sizes' missing or empty")
    if not report["smoke"] and len(sizes) < 4:
        fail(f"full run must cover at least 4 sizes, got {len(sizes)}")

    prev_nodes = -1
    prev_instrs = -1
    for size in sizes:
        name = size.get("name")
        if not isinstance(name, str) or not name:
            fail("size with missing name")
        for field in ("target_nodes", "functions", "instructions"):
            value = size.get(field)
            if not isinstance(value, int) or value <= 0:
                fail(f"size {name!r}: bad {field!r}: {value!r}")
        # The answer cross-checks are enforced by the harness (it aborts
        # on any mismatch); the report must still attest that they ran.
        for field in ("fingerprints_equal", "warnings_equal_all_configs"):
            if size.get(field) is not True:
                fail(f"size {name!r}: {field!r} is not true")

        configs = size.get("configs")
        if not isinstance(configs, list):
            fail(f"size {name!r}: missing 'configs'")
        if [c.get("name") for c in configs] != SCALE_CONFIGS:
            fail(
                f"size {name!r}: configs must be exactly {SCALE_CONFIGS}, "
                f"got {[c.get('name') for c in configs]}"
            )
        by_name = {c["name"]: c for c in configs}
        for config in configs:
            cname = f"{name}/{config['name']}"
            for field in ("parse_ms", "mem2reg_ms", "analyze_ms"):
                value = config.get(field)
                if not isinstance(value, (int, float)) or value <= 0:
                    fail(f"{cname}: non-positive {field!r}: {value!r}")
            rss = config.get("peak_rss_bytes")
            if not isinstance(rss, int) or rss <= 0:
                fail(f"{cname}: bad 'peak_rss_bytes': {rss!r}")
            phases = config.get("phases")
            if not isinstance(phases, dict):
                fail(f"{cname}: missing 'phases'")
            for field in SCALE_PHASES:
                value = phases.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    fail(f"{cname}: bad phase {field!r}: {value!r}")
            # The recorded phases partition the analyze interval (up to
            # rounding and the driver's own bookkeeping between phases).
            if sum(phases.values()) > config["analyze_ms"] * 1.10 + 1.0:
                fail(f"{cname}: phase times exceed analyze_ms")
            for field in ("vfg_nodes", "vfg_edges", "checks", "shadow_ops"):
                value = config.get(field)
                if not isinstance(value, int) or value < 0:
                    fail(f"{cname}: bad {field!r}: {value!r}")
            ws = config.get("warning_sites")
            if not isinstance(ws, int) or ws < 0:
                fail(f"{cname}: bad 'warning_sites': {ws!r}")

        ref = by_name["andersen-global"]
        # The unify rung may only over-approximate.
        unify = by_name["unify-global"]
        if unify["checks"] < ref["checks"]:
            fail(
                f"size {name!r}: unify plan has fewer checks than "
                "Andersen's — unsound check elision"
            )
        if unify["warning_sites"] != ref["warning_sites"]:
            fail(
                f"size {name!r}: runtime warning count depends on the "
                "constraint engine"
            )

        if ref["vfg_nodes"] <= prev_nodes:
            fail(f"size {name!r}: VFG node count not strictly increasing")
        if size["instructions"] < prev_instrs:
            fail(f"size {name!r}: instruction count decreased")
        prev_nodes = ref["vfg_nodes"]
        prev_instrs = size["instructions"]

    summary = report.get("summary")
    if not isinstance(summary, dict):
        fail("missing 'summary'")
    first = sizes[0]["configs"][0]["vfg_nodes"]
    last = sizes[-1]["configs"][0]["vfg_nodes"]
    if summary.get("min_vfg_nodes") != first:
        fail("summary: min_vfg_nodes disagrees with the first size")
    if summary.get("max_vfg_nodes") != last:
        fail("summary: max_vfg_nodes disagrees with the last size")
    if not report["smoke"]:
        # The committed curve must actually span the claimed range:
        # roughly 1k nodes at the bottom, past 100k at the top.
        if first > 2500:
            fail(f"full run: smallest size has {first} VFG nodes (> 2500)")
        if last < 100000:
            fail(f"full run: largest size has {last} VFG nodes (< 100000)")
    print(f"check_bench_json: OK: {path} ({len(sizes)} sizes)")


def check_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")

    schema = report.get("schema")
    if schema == "usher-bench-solver-v1":
        check_solver_report(report, path)
    elif schema == "usher-bench-scale-v1":
        check_scale_report(report, path)
    else:
        fail(f"unexpected schema tag: {schema!r}")


def main(argv):
    if len(argv) == 3 and argv[1] == "--run-smoke":
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "report.json")
            proc = subprocess.run([argv[2], "--smoke", f"--out={out}"])
            if proc.returncode != 0:
                fail(f"{argv[2]} --smoke exited with {proc.returncode}")
            check_report(out)
    elif len(argv) == 2 and not argv[1].startswith("-"):
        check_report(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)

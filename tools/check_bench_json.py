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

import sys

from jsoncheck import Checker

V = Checker("check_bench_json", __doc__)

# Every engine field is a non-negative number.
ENGINE_SHAPE = {
    field: float
    for field in (
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
    )
}


def check_engine(workload, key):
    owner = f"workload {workload.get('name')!r}"
    engine = V.shape(workload, {key: ENGINE_SHAPE}, owner)[key]
    where = f"{owner} engine {key!r}"
    # The solve phase is a sub-interval of the whole construction.
    if engine["solve_ms"] > engine["total_ms"] + 1e-6:
        V.fail(f"{where}: solve_ms exceeds total_ms")
    # The worklist accounting invariant only constrains the Andersen
    # engines; the unification solver's pops are class-representative
    # merges with their own charging discipline.
    if key != "unify" and engine["pops"] > (
        engine["budget_steps"] + engine["skipped_merged_pops"]
    ):
        V.fail(f"{where}: pops exceed charged steps plus uncharged "
               "merged-pop skips")
    if key != "unify" and engine["unified_cells"] != 0:
        V.fail(f"{where}: Andersen engine reports unified cells")
    return engine


def check_summary(report, fields):
    summary = report.get("summary")
    if not isinstance(summary, dict):
        V.fail("missing 'summary'")
    for field in fields:
        V.number(summary, field, "summary", strict=True)
    return summary


def check_common_header(report):
    V.boolean(report, "smoke", "report")
    V.number(report, "iterations", "report", kind=int, low=1)


def check_solver_report(report, path):
    check_common_header(report)
    workloads = report.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        V.fail("'workloads' missing or empty")
    names = set()
    for workload in workloads:
        name = V.string(workload, "name", "workload")
        if name in names:
            V.fail(f"duplicate workload name {name!r}")
        names.add(name)
        where = f"workload {name!r}"
        for field in ("nodes", "constraints"):
            V.number(workload, field, where, kind=int, strict=True)
        naive = check_engine(workload, "naive")
        optimized = check_engine(workload, "optimized")
        unify = check_engine(workload, "unify")
        for field in ("speedup", "unify_speedup"):
            V.number(workload, field, where, strict=True)
        # Both Andersen engines solve the identical constraint system;
        # collapsing only ever reduces worklist traffic.
        if optimized["pops"] > 4 * naive["pops"] + 16:
            V.fail(
                f"{where}: optimized pop count wildly exceeds the "
                "reference's — difference propagation is not working"
            )
        # ...and so they must reach the identical fixpoint: equal points-to
        # sets, hence equal plans and equal runtime warnings.
        for field in ("avg_pts_size", "plan_checks", "warnings"):
            if optimized[field] != naive[field]:
                V.fail(
                    f"{where}: optimized {field} "
                    f"{optimized[field]!r} differs from naive "
                    f"{naive[field]!r} — the Andersen engines disagree"
                )
        # Unification may only lose precision, never gain it, and the
        # warnings the pipeline reports at runtime are ground truth — the
        # engine must not change them.
        if unify["avg_pts_size"] + 1e-9 < optimized["avg_pts_size"]:
            V.fail(
                f"{where}: unify points-to sets are smaller than "
                "Andersen's — the over-approximation is broken"
            )
        if unify["plan_checks"] < optimized["plan_checks"]:
            V.fail(
                f"{where}: unify plan has fewer checks than "
                "Andersen's — unsound check elision"
            )
        if unify["warnings"] != optimized["warnings"]:
            V.fail(
                f"{where}: runtime warning count depends on the "
                "constraint engine"
            )

    summary = check_summary(report, ("min_speedup", "geomean_speedup",
                                     "min_unify_speedup",
                                     "geomean_unify_speedup"))
    if summary["min_speedup"] > summary["geomean_speedup"] + 1e-9:
        V.fail("summary: min_speedup exceeds geomean_speedup")
    if summary["min_unify_speedup"] > summary["geomean_unify_speedup"] + 1e-9:
        V.fail("summary: min_unify_speedup exceeds geomean_unify_speedup")
    V.ok(f": {path} ({len(workloads)} workloads)")


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


def unpruned(config):
    """A configuration's program size: the VFG nodes built plus the memory
    SSA versions pruned, i.e. the size of the unpruned graph."""
    return config["vfg_nodes"] + config["vfg_pruned"]


def check_scale_report(report, path):
    check_common_header(report)
    V.number(report, "hardware_concurrency", "report", kind=int, low=1)

    sizes = report.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        V.fail("'sizes' missing or empty")
    if not report["smoke"] and len(sizes) < 4:
        V.fail(f"full run must cover at least 4 sizes, got {len(sizes)}")

    prev_nodes = -1
    prev_instrs = -1
    for size in sizes:
        name = V.string(size, "name", "size")
        where = f"size {name!r}"
        for field in ("target_nodes", "functions", "instructions"):
            V.number(size, field, where, kind=int, strict=True)
        # The answer cross-checks are enforced by the harness (it aborts
        # on any mismatch); the report must still attest that they ran.
        for field in ("fingerprints_equal", "warnings_equal_all_configs"):
            if size.get(field) is not True:
                V.fail(f"{where}: {field!r} is not true")

        configs = size.get("configs")
        if not isinstance(configs, list):
            V.fail(f"{where}: missing 'configs'")
        if [c.get("name") for c in configs] != SCALE_CONFIGS:
            V.fail(
                f"{where}: configs must be exactly {SCALE_CONFIGS}, "
                f"got {[c.get('name') for c in configs]}"
            )
        by_name = {c["name"]: c for c in configs}
        for config in configs:
            cname = f"{name}/{config['name']}"
            for field in ("parse_ms", "mem2reg_ms", "analyze_ms"):
                V.number(config, field, cname, strict=True)
            V.number(config, "peak_rss_bytes", cname, kind=int, strict=True)
            phases = config.get("phases")
            if not isinstance(phases, dict):
                V.fail(f"{cname}: missing 'phases'")
            for field in SCALE_PHASES:
                V.number(phases, field, f"{cname} phase")
            # The recorded phases partition the analyze interval (up to
            # rounding and the driver's own bookkeeping between phases).
            if sum(phases.values()) > config["analyze_ms"] * 1.10 + 1.0:
                V.fail(f"{cname}: phase times exceed analyze_ms")
            for field in ("vfg_nodes", "vfg_edges", "vfg_pruned", "checks",
                          "shadow_ops", "warning_sites"):
                V.number(config, field, cname, kind=int)

        ref = by_name["andersen-global"]
        # The unify rung may only over-approximate.
        unify = by_name["unify-global"]
        if unify["checks"] < ref["checks"]:
            V.fail(
                f"{where}: unify plan has fewer checks than "
                "Andersen's — unsound check elision"
            )
        if unify["warning_sites"] != ref["warning_sites"]:
            V.fail(
                f"{where}: runtime warning count depends on the "
                "constraint engine"
            )

        if unpruned(ref) <= prev_nodes:
            V.fail(f"{where}: VFG node count not strictly increasing")
        if size["instructions"] < prev_instrs:
            V.fail(f"{where}: instruction count decreased")
        prev_nodes = unpruned(ref)
        prev_instrs = size["instructions"]

    summary = check_summary(report, ())
    first = unpruned(sizes[0]["configs"][0])
    last = unpruned(sizes[-1]["configs"][0])
    if summary.get("min_vfg_nodes") != first:
        V.fail("summary: min_vfg_nodes disagrees with the first size")
    if summary.get("max_vfg_nodes") != last:
        V.fail("summary: max_vfg_nodes disagrees with the last size")
    if not report["smoke"]:
        # The committed curve must actually span the claimed range:
        # roughly 1k nodes at the bottom, past 100k at the top.
        if first > 2500:
            V.fail(f"full run: smallest size has {first} VFG nodes (> 2500)")
        if last < 100000:
            V.fail(f"full run: largest size has {last} VFG nodes (< 100000)")
    V.ok(f": {path} ({len(sizes)} sizes)")


def check_report(path):
    report = V.load(path)
    schema = report.get("schema")
    if schema == "usher-bench-solver-v1":
        check_solver_report(report, path)
    elif schema == "usher-bench-scale-v1":
        check_scale_report(report, path)
    else:
        V.fail(f"unexpected schema tag: {schema!r}")


def run_smoke(bench_bin):
    V.run_smoke([bench_bin, "--smoke", "--out={out}"], check_report)


if __name__ == "__main__":
    V.main(sys.argv, check_report, [("--run-smoke", run_smoke, 1, 1)])

#!/usr/bin/env python3
"""Schema validator for usher-fuzz's usher-fuzz-v1 report.

Usage:
  check_fuzz_json.py FILE.json              validate an existing report
  check_fuzz_json.py --run-smoke FUZZ_BIN   run `FUZZ_BIN --seed=7 --runs=8
                                            --json=tmp`, then validate it

The fuzz-smoke ctest uses --run-smoke so the campaign driver and its
machine-readable output stay covered in tier-1 without burning time on a
full campaign. A smoke campaign may legitimately contain divergences (the
binary then exits 3); the validator checks well-formedness and internal
consistency, not cleanliness — the separate fuzz_smoke test asserts the
campaign is clean.
"""

import sys

from jsoncheck import Checker

V = Checker("check_fuzz_json", __doc__)

ORACLE_NAMES = [
    "variant-equivalence",
    "solver-equivalence",
    "diagnosis-soundness",
    "degradation-soundness",
    "serve-equivalence",
    "query-equivalence",
    "client-consistency",
]

REPORT_SHAPE = {
    "seed": int,
    "runs": int,
    "interrupted": bool,
    "valid": int,
    "invalid": int,
    "scheduled": {"generated": int, "mutated": int, "spliced": int,
                  "wrapped": int},
    "corpus_size": int,
    "coverage_keys": int,
}


def check_report(path):
    report = V.load(path)
    if report.get("schema") != "usher-fuzz-v1":
        V.fail(f"unexpected schema tag: {report.get('schema')!r}")
    V.shape(report, REPORT_SHAPE, "report")
    total = sum(report["scheduled"][f] for f in REPORT_SHAPE["scheduled"])
    if total != report["runs"]:
        V.fail(f"scheduled inputs sum to {total}, "
               f"expected runs={report['runs']}")
    if report["valid"] + report["invalid"] != report["runs"]:
        V.fail("valid + invalid does not equal runs")

    oracles = report.get("oracles")
    if not isinstance(oracles, list) or len(oracles) != len(ORACLE_NAMES):
        V.fail(f"'oracles' missing or not exactly {len(ORACLE_NAMES)} entries")
    seen = []
    for oracle in oracles:
        name = oracle.get("oracle")
        if name not in ORACLE_NAMES:
            V.fail(f"unknown oracle name {name!r}")
        seen.append(name)
        checked = V.count(oracle, "checked", f"oracle {name!r}")
        V.count(oracle, "divergences", f"oracle {name!r}")
        if checked > report["runs"]:
            V.fail(f"oracle {name!r}: checked {checked} exceeds runs")
    if seen != ORACLE_NAMES:
        V.fail(f"oracle names out of order or duplicated: {seen}")

    divergences = report.get("divergences")
    if not isinstance(divergences, list):
        V.fail("'divergences' missing")
    for i, div in enumerate(divergences):
        owner = f"divergence[{i}]"
        if div.get("oracle") not in ORACLE_NAMES:
            V.fail(f"{owner}: unknown oracle {div.get('oracle')!r}")
        run = V.count(div, "run", owner)
        if run >= report["runs"]:
            V.fail(f"{owner}: run index {run} out of range")
        orig = V.count(div, "original_lines", owner)
        reduced = V.count(div, "reduced_lines", owner)
        V.count(div, "reduce_checks", owner)
        if reduced > orig:
            V.fail(f"{owner}: reduction grew the program "
                   f"({orig} -> {reduced})")
        V.string(div, "detail", owner)
        V.string(div, "reduced_source", owner)
    total_diverged = sum(o["divergences"] for o in oracles)
    if divergences and total_diverged == 0:
        V.fail("divergence records present but per-oracle tallies are "
               "all zero")

    V.ok(f": {path} ({report['runs']} runs, {len(divergences)} divergences)")


def run_smoke(fuzz_bin):
    # 0 = clean campaign, 3 = divergences found; both write a report.
    V.run_smoke([fuzz_bin, "--seed=7", "--runs=8", "--json={out}"],
                check_report, ok_codes=(0, 3))


if __name__ == "__main__":
    V.main(sys.argv, check_report, [("--run-smoke", run_smoke, 1, 1)])

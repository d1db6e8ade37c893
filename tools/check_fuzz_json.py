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

import json
import subprocess
import sys
import tempfile
import os

ORACLE_NAMES = [
    "variant-equivalence",
    "solver-equivalence",
    "diagnosis-soundness",
    "degradation-soundness",
    "serve-equivalence",
    "query-equivalence",
    "client-consistency",
]

COUNTER_FIELDS = ["seed", "runs", "valid", "invalid", "corpus_size", "coverage_keys"]

SCHEDULED_FIELDS = ["generated", "mutated", "spliced", "wrapped"]


def fail(msg):
    print(f"check_fuzz_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_count(owner, obj, field):
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(f"{owner}: field {field!r} missing or not a count: {value!r}")
    return value


def check_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")

    if report.get("schema") != "usher-fuzz-v1":
        fail(f"unexpected schema tag: {report.get('schema')!r}")
    for field in COUNTER_FIELDS:
        check_count("report", report, field)
    if not isinstance(report.get("interrupted"), bool):
        fail(f"field 'interrupted' missing or not a bool: "
             f"{report.get('interrupted')!r}")

    scheduled = report.get("scheduled")
    if not isinstance(scheduled, dict):
        fail("missing 'scheduled' block")
    total = sum(check_count("scheduled", scheduled, f) for f in SCHEDULED_FIELDS)
    if total != report["runs"]:
        fail(f"scheduled inputs sum to {total}, expected runs={report['runs']}")
    if report["valid"] + report["invalid"] != report["runs"]:
        fail("valid + invalid does not equal runs")

    oracles = report.get("oracles")
    if not isinstance(oracles, list) or len(oracles) != len(ORACLE_NAMES):
        fail(f"'oracles' missing or not exactly {len(ORACLE_NAMES)} entries")
    seen = []
    for oracle in oracles:
        name = oracle.get("oracle")
        if name not in ORACLE_NAMES:
            fail(f"unknown oracle name {name!r}")
        seen.append(name)
        checked = check_count(f"oracle {name!r}", oracle, "checked")
        check_count(f"oracle {name!r}", oracle, "divergences")
        if checked > report["runs"]:
            fail(f"oracle {name!r}: checked {checked} exceeds runs")
    if seen != ORACLE_NAMES:
        fail(f"oracle names out of order or duplicated: {seen}")

    divergences = report.get("divergences")
    if not isinstance(divergences, list):
        fail("'divergences' missing")
    for i, div in enumerate(divergences):
        owner = f"divergence[{i}]"
        if div.get("oracle") not in ORACLE_NAMES:
            fail(f"{owner}: unknown oracle {div.get('oracle')!r}")
        run = check_count(owner, div, "run")
        if run >= report["runs"]:
            fail(f"{owner}: run index {run} out of range")
        orig = check_count(owner, div, "original_lines")
        reduced = check_count(owner, div, "reduced_lines")
        check_count(owner, div, "reduce_checks")
        if reduced > orig:
            fail(f"{owner}: reduction grew the program ({orig} -> {reduced})")
        for field in ("detail", "reduced_source"):
            if not isinstance(div.get(field), str) or not div[field]:
                fail(f"{owner}: missing {field!r}")
    total_diverged = sum(o["divergences"] for o in oracles)
    if divergences and total_diverged == 0:
        fail("divergence records present but per-oracle tallies are all zero")

    print(
        f"check_fuzz_json: OK: {path} "
        f"({report['runs']} runs, {len(divergences)} divergences)"
    )


def main(argv):
    if len(argv) == 3 and argv[1] == "--run-smoke":
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "fuzz.json")
            proc = subprocess.run(
                [argv[2], "--seed=7", "--runs=8", f"--json={out}"],
                stdout=subprocess.DEVNULL,
            )
            # 0 = clean campaign, 3 = divergences found; both write a report.
            if proc.returncode not in (0, 3):
                fail(f"{argv[2]} exited with {proc.returncode}")
            check_report(out)
    elif len(argv) == 2 and not argv[1].startswith("-"):
        check_report(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)

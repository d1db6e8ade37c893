#!/usr/bin/env python3
"""End-to-end scale check: synthesize one program, analyze it two ways.

Drives `usher-gen` to emit a synthesized program of the requested size,
runs it through `usher-cli` under the two solver configurations

    (default)        (Andersen, reference)
    --solver=unify   (near-linear unification rung)

and asserts the *answers* agree: identical interpreter result and an
identical runtime warning set for every configuration (the unify rung may
plan more checks than Andersen — never fewer, and never different
warnings). With --min-vfg-nodes=N it additionally measures the program
via `usher-cli --stats --no-run` and requires at least N VFG nodes, so
the label-gated scale test proves the 100k+ acceptance size really went
through the full pipeline. The count is the unpruned graph's: the nodes
built plus the memory SSA versions pruned because no load reads them.

Usage:
  check_scale_smoke.py USHER_GEN USHER_CLI --nodes=N [--min-vfg-nodes=M]
                       [extra usher-gen flags...]

Exit: 0 on success, with a line of the script name, a colon and "OK"
(which this usage text must never contain); 1 on any mismatch.
"""

import os
import re
import subprocess
import sys
import tempfile

from jsoncheck import Checker

V = Checker("check_scale_smoke", __doc__)


def run(cmd, ok_codes=(0,)):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in ok_codes:
        V.fail(
            f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}"
        )
    return proc.stdout


CONFIGS = [
    ("andersen", []),
    ("unify", ["--solver=unify"]),
]

RESULT_RE = re.compile(r"result (-?\d+),.*shadow ops (\d+), checks (\d+)")


def parse_run(name, out):
    match = RESULT_RE.search(out)
    if not match:
        V.fail(f"{name}: no result line in output:\n{out}")
    warnings = sorted(
        line.strip() for line in out.splitlines() if "warning:" in line
    )
    return int(match.group(1)), int(match.group(3)), warnings


def main(argv):
    if len(argv) < 4:
        V.usage()
    gen_bin, cli_bin = argv[1], argv[2]
    min_nodes = 0
    gen_flags = []
    for arg in argv[3:]:
        if arg.startswith("--min-vfg-nodes="):
            min_nodes = int(arg.split("=", 1)[1])
        else:
            gen_flags.append(arg)

    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "scale.tc")
        run([gen_bin] + gen_flags + [f"--out={source}"])

        if min_nodes:
            stats = run([cli_bin, source, "--stats", "--no-run"])
            match = re.search(r"VFG nodes/edges:\s*(\d+)/(\d+)", stats)
            pruned = re.search(r"memory SSA versions:\s*\d+ \(pruned (\d+)\)",
                               stats)
            if not match or not pruned:
                V.fail(f"no VFG node count in --stats output:\n{stats}")
            nodes = int(match.group(1)) + int(pruned.group(1))
            if nodes < min_nodes:
                V.fail(f"program has {nodes} VFG nodes, needed {min_nodes}")
            print(f"measured VFG nodes: {nodes} (>= {min_nodes})")

        runs = {}
        for name, flags in CONFIGS:
            # Exit 3 is usher-cli's "runtime warnings were reported" —
            # the expected outcome for a synthesized program with
            # uninitialized allocations.
            out = run([cli_bin, source] + flags, ok_codes=(0, 3))
            runs[name] = parse_run(name, out)

        ref_result, ref_checks, ref_warnings = runs["andersen"]
        if not ref_warnings:
            V.fail(
                "reference run reported no warnings — the synthesized "
                "program exercises nothing"
            )
        for name, (result, checks, warnings) in runs.items():
            if result != ref_result:
                V.fail(f"{name}: result {result} != reference {ref_result}")
            if warnings != ref_warnings:
                V.fail(
                    f"{name}: warning set diverged from reference:\n"
                    f"  reference: {ref_warnings}\n  {name}: {warnings}"
                )
            if checks < ref_checks:
                V.fail(
                    f"{name}: plans {checks} checks, fewer than the "
                    f"Andersen reference's {ref_checks} — unsound elision"
                )

    V.ok(
        f" ({len(CONFIGS)} configs, "
        f"{len(ref_warnings)} warning sites, result {ref_result})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

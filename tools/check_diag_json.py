#!/usr/bin/env python3
"""Schema validator for usher-cli's --diag-json report (usher-diagnosis-v1).

Usage:
  check_diag_json.py FILE.json                validate an existing report
  check_diag_json.py --run-smoke CLI INPUT.tc [INPUT.tc ...]
                                              for each input, run `CLI
                                              INPUT.tc --diagnose
                                              --diag-json=<tmp> --no-run`,
                                              then validate the output

The usher_cli_diag_json ctest uses --run-smoke over every program of the
diagnosis bug corpus, so the CLI surface and the machine-readable schema
stay covered by tier-1. Verdicts are NOT pinned here (the C++ differential tests own
that); this checks that the report is structurally valid: consistent
summary counts, well-formed findings, and codeFlows whose edges carry
legal kinds and call-site labels.
"""

import json
import os
import subprocess
import sys
import tempfile

VERDICTS = {"may": "warning", "definite": "error"}
EDGE_KINDS = {"direct", "call", "ret"}
CLIENTS = {"uuv", "addrleak", "bounds"}


def fail(msg):
    print(f"check_diag_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_count(obj, field, where):
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(f"{where}: field {field!r} missing or not a count: {value!r}")
    return value


def check_str(obj, field, where, allow_empty=False):
    value = obj.get(field)
    if not isinstance(value, str) or (not allow_empty and not value):
        fail(f"{where}: field {field!r} missing or empty: {value!r}")
    return value


def check_code_flow(finding, where):
    flow = finding.get("codeFlow")
    if not isinstance(flow, list):
        fail(f"{where}: 'codeFlow' missing or not a list")
    if finding["verdict"] == "definite" and not flow:
        fail(f"{where}: DEFINITE finding with an empty codeFlow")
    for pos, step in enumerate(flow):
        swhere = f"{where} codeFlow[{pos}]"
        if not isinstance(step, dict):
            fail(f"{swhere}: not an object")
        check_count(step, "nodeId", swhere)
        check_str(step, "desc", swhere)
        edge = step.get("edgeToNext")
        last = pos == len(flow) - 1
        if last:
            if edge is not None:
                fail(f"{swhere}: final step carries an edge")
            continue
        if not isinstance(edge, dict):
            fail(f"{swhere}: interior step without 'edgeToNext'")
        kind = edge.get("kind")
        if kind not in EDGE_KINDS:
            fail(f"{swhere}: bad edge kind {kind!r}")
        if kind in ("call", "ret"):
            check_count(edge, "callSite", swhere)
    if flow:
        if flow[0]["desc"] != "F":
            fail(f"{where}: codeFlow does not start at the F root")


def check_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")

    if report.get("schema") != "usher-diagnosis-v1":
        fail(f"unexpected schema tag: {report.get('schema')!r}")

    summary = report.get("summary")
    if not isinstance(summary, dict):
        fail("missing 'summary'")
    uses = check_count(summary, "critical_uses", "summary")
    clean = check_count(summary, "clean", "summary")
    may = check_count(summary, "may", "summary")
    definite = check_count(summary, "definite", "summary")
    if clean + may + definite != uses:
        fail(
            f"summary counts do not add up: {clean}+{may}+{definite} "
            f"!= {uses}"
        )

    findings = report.get("findings")
    if not isinstance(findings, list):
        fail("'findings' missing or not a list")
    if len(findings) != may + definite:
        fail(
            f"{len(findings)} findings for {may} may + {definite} "
            "definite verdicts"
        )

    seen = {"may": 0, "definite": 0}
    for idx, finding in enumerate(findings):
        where = f"finding[{idx}]"
        if not isinstance(finding, dict):
            fail(f"{where}: not an object")
        if finding.get("ruleId") != "usher-uuv":
            fail(f"{where}: bad ruleId {finding.get('ruleId')!r}")
        client = finding.get("client")
        if client not in CLIENTS:
            fail(f"{where}: bad client {client!r}")
        if finding["ruleId"] != f"usher-{client}":
            fail(f"{where}: client {client!r} disagrees with ruleId")
        verdict = finding.get("verdict")
        if verdict not in VERDICTS:
            fail(f"{where}: bad verdict {verdict!r}")
        seen[verdict] += 1
        if finding.get("severity") != VERDICTS[verdict]:
            fail(
                f"{where}: severity {finding.get('severity')!r} does not "
                f"match verdict {verdict!r}"
            )
        check_str(finding, "function", where)
        check_count(finding, "instructionId", where)
        check_str(finding, "instruction", where)
        check_str(finding, "var", where)
        loc = finding.get("location")
        if not isinstance(loc, dict):
            fail(f"{where}: missing 'location'")
        check_count(loc, "line", f"{where} location")
        check_count(loc, "col", f"{where} location")
        check_code_flow(finding, where)

    if seen["may"] != may or seen["definite"] != definite:
        fail(
            f"finding verdicts ({seen['may']} may, {seen['definite']} "
            f"definite) disagree with the summary ({may} may, "
            f"{definite} definite)"
        )

    print(f"check_diag_json: OK: {path} ({len(findings)} findings)")


def main(argv):
    if len(argv) >= 4 and argv[1] == "--run-smoke":
        with tempfile.TemporaryDirectory() as tmp:
            for idx, program in enumerate(argv[3:]):
                out = os.path.join(tmp, f"diag{idx}.json")
                proc = subprocess.run(
                    [argv[2], program, "--diagnose", f"--diag-json={out}",
                     "--no-run"]
                )
                if proc.returncode != 0:
                    fail(f"{argv[2]} {program} exited with {proc.returncode}")
                check_report(out)
    elif len(argv) == 2 and not argv[1].startswith("-"):
        check_report(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)

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

import sys

from jsoncheck import Checker

V = Checker("check_diag_json", __doc__)

VERDICTS = {"may": "warning", "definite": "error"}
EDGE_KINDS = {"direct", "call", "ret"}
CLIENTS = {"uuv", "addrleak", "bounds"}

SUMMARY_SHAPE = {"critical_uses": int, "clean": int, "may": int,
                 "definite": int}
FINDING_SHAPE = {"function": str, "instructionId": int, "instruction": str,
                 "var": str, "location": {"line": int, "col": int}}
STEP_SHAPE = {"nodeId": int, "desc": str}


def check_code_flow(finding, where):
    flow = finding.get("codeFlow")
    if not isinstance(flow, list):
        V.fail(f"{where}: 'codeFlow' missing or not a list")
    if finding["verdict"] == "definite" and not flow:
        V.fail(f"{where}: DEFINITE finding with an empty codeFlow")
    for pos, step in enumerate(flow):
        swhere = f"{where} codeFlow[{pos}]"
        V.shape(step, STEP_SHAPE, swhere)
        edge = step.get("edgeToNext")
        last = pos == len(flow) - 1
        if last:
            if edge is not None:
                V.fail(f"{swhere}: final step carries an edge")
            continue
        if not isinstance(edge, dict):
            V.fail(f"{swhere}: interior step without 'edgeToNext'")
        kind = edge.get("kind")
        if kind not in EDGE_KINDS:
            V.fail(f"{swhere}: bad edge kind {kind!r}")
        if kind in ("call", "ret"):
            V.count(edge, "callSite", swhere)
    if flow and flow[0]["desc"] != "F":
        V.fail(f"{where}: codeFlow does not start at the F root")


def check_report(path):
    report = V.load(path)
    if report.get("schema") != "usher-diagnosis-v1":
        V.fail(f"unexpected schema tag: {report.get('schema')!r}")

    V.shape(report, {"summary": SUMMARY_SHAPE}, "report")
    summary = report["summary"]
    uses, clean, may, definite = (summary[f] for f in SUMMARY_SHAPE)
    if clean + may + definite != uses:
        V.fail(
            f"summary counts do not add up: {clean}+{may}+{definite} "
            f"!= {uses}"
        )

    findings = report.get("findings")
    if not isinstance(findings, list):
        V.fail("'findings' missing or not a list")
    if len(findings) != may + definite:
        V.fail(
            f"{len(findings)} findings for {may} may + {definite} "
            "definite verdicts"
        )

    seen = {"may": 0, "definite": 0}
    for idx, finding in enumerate(findings):
        where = f"finding[{idx}]"
        if not isinstance(finding, dict):
            V.fail(f"{where}: not an object")
        if finding.get("ruleId") != "usher-uuv":
            V.fail(f"{where}: bad ruleId {finding.get('ruleId')!r}")
        client = finding.get("client")
        if client not in CLIENTS:
            V.fail(f"{where}: bad client {client!r}")
        if finding["ruleId"] != f"usher-{client}":
            V.fail(f"{where}: client {client!r} disagrees with ruleId")
        verdict = finding.get("verdict")
        if verdict not in VERDICTS:
            V.fail(f"{where}: bad verdict {verdict!r}")
        seen[verdict] += 1
        if finding.get("severity") != VERDICTS[verdict]:
            V.fail(
                f"{where}: severity {finding.get('severity')!r} does not "
                f"match verdict {verdict!r}"
            )
        V.shape(finding, FINDING_SHAPE, where)
        check_code_flow(finding, where)

    if seen["may"] != may or seen["definite"] != definite:
        V.fail(
            f"finding verdicts ({seen['may']} may, {seen['definite']} "
            f"definite) disagree with the summary ({may} may, "
            f"{definite} definite)"
        )

    V.ok(f": {path} ({len(findings)} findings)")


def run_smoke(cli, *programs):
    for program in programs:
        V.run_smoke([cli, program, "--diagnose", "--diag-json={out}",
                     "--no-run"], check_report)


if __name__ == "__main__":
    V.main(sys.argv, check_report, [("--run-smoke", run_smoke, 2, None)])

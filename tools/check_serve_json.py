#!/usr/bin/env python3
"""Schema validator and end-to-end driver for usher-serve (usher-serve-v1).

Usage:
  check_serve_json.py FILE.json
      Validate an existing usher-serve-v1 status document (kind "status",
      the daemon's --op=status output).

  check_serve_json.py --run-smoke SERVE_BIN PROG DIAG_PROG
      Drive a full service round trip: start a daemon on a fresh socket +
      snapshot dir, issue a cold analyze, a warm analyze (must be
      byte-identical to the cold reply), a diagnose, a --budget-steps=1
      analyze (must come back DEGRADED), validate the status JSON and its
      snapshot counters (one hit, two misses) against a directory holding
      exactly one record per cacheable request, and shut down cleanly.
      Then restart with --queue-limit=0 and assert an analyze is shed
      (client exit 4) while --op=status still answers.

  check_serve_json.py --run-query SERVE_BIN PROG
      Query-op round trip: issue a reachable and an unreachable
      --op=query against PROG (whose pinned node ids are documented in
      tests/inputs/query/undef_branch.tc), require the verdicts and the
      witness line, reject a malformed query spec, validate the status
      JSON (including the query request counter), and shut down cleanly.

  check_serve_json.py --run-crash SERVE_BIN PROG
      Crash-recovery contract: warm the snapshot store, `kill -9` the
      daemon, restart it on the same directory, and require the recovered
      warm reply to be byte-identical to the cold one. A second leg arms
      the snapshot-torn-write fault via USHER_INJECT_IO_FAULT and requires
      the daemon to keep answering correctly (the torn record is
      discarded and recomputed, never served).

  check_serve_json.py --run-fault SERVE_BIN PROG
      IO fault campaign: for every injectable IO fault site, run a daemon
      with the fault armed and require every analyze reply to carry the
      correct payload (or, for socket-drop-reply, the client to retry its
      way to it) and the daemon to survive to a clean shutdown.

On success every driver mode prints one line: the script name, a colon
and "OK". The ctest entries key off that line, which this usage text
must never contain.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from jsoncheck import Checker

V = Checker("check_serve_json", __doc__)

IO_FAULT_SITES = [
    "snapshot-read",
    "snapshot-write",
    "snapshot-torn-write",
    "socket-drop-reply",
    "parse-alloc",
]


def counts(*fields):
    return {f: int for f in fields}


STATUS_SHAPE = {
    "requests": counts("total", "analyze", "diagnose", "query", "status",
                       "ping", "shutdown"),
    "replies": counts("ok", "degraded", "error", "served_warm"),
    "snapshot": {"in_memory": bool,
                 **counts("hits", "misses", "corrupt_discarded",
                          "write_failures")},
    "daemon": counts("queue_depth", "queue_limit", "shed", "dropped_replies",
                     "protocol_errors", "workers"),
}


def check_document(doc, source):
    if doc.get("schema") != "usher-serve-v1":
        V.fail(f"{source}: unexpected schema tag: {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind != "status":
        V.fail(f"{source}: unknown kind {kind!r}")
    V.shape(doc, STATUS_SHAPE, source)
    reqs = doc["requests"]
    per_op = sum(reqs[f] for f in list(STATUS_SHAPE["requests"])[1:])
    if per_op != reqs["total"]:
        V.fail(f"{source}: per-op requests sum to {per_op}, "
               f"expected total={reqs['total']}")
    if doc["replies"]["served_warm"] > doc["replies"]["ok"]:
        V.fail(f"{source}: served_warm exceeds ok replies")
    return kind


def check_file(path):
    kind = check_document(V.load(path), path)
    V.ok(f": {path} (kind={kind})")


# --- Daemon driver helpers --------------------------------------------------


class Daemon:
    """A running usher-serve daemon with its socket and log capture."""

    def __init__(self, serve_bin, tmp, tag, *extra, env=None):
        self.serve_bin = serve_bin
        self.sock = os.path.join(tmp, f"{tag}.sock")
        self.log = open(os.path.join(tmp, f"{tag}.log"), "w+")
        self.proc = subprocess.Popen(
            [serve_bin, f"--socket={self.sock}", *extra],
            stdout=self.log, stderr=self.log, env=env,
        )
        deadline = time.monotonic() + 10.0
        while not os.path.exists(self.sock):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.log.seek(0)
                V.fail(f"daemon did not come up: {self.log.read().strip()!r}")
            time.sleep(0.02)

    def expect(self, what, *args, code=0):
        """A client call that must exit with code; returns the reply's
        status line and payload."""
        proc = subprocess.run(
            [self.serve_bin, "--client", f"--socket={self.sock}", *args],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode != code:
            V.fail(f"{what} exited {proc.returncode}: {proc.stdout!r} "
                   f"{proc.stderr.strip()!r}")
        head, _, body = proc.stdout.partition("\n")
        return head, body

    def status(self, source):
        """The --op=status document, validated."""
        _, body = self.expect(f"{source} status", "--op=status")
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as e:
            V.fail(f"{source}: status payload is not JSON: {e}\n{body!r}")
        check_document(doc, f"{source} status reply")
        return doc

    def shutdown(self):
        self.expect("shutdown client", "--op=shutdown")
        daemon_code = self.proc.wait(timeout=10)
        self.log.close()
        if daemon_code != 0:
            V.fail(f"daemon exited {daemon_code} after shutdown")

    def kill9(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)
        self.log.close()
        # A SIGKILL'd daemon cannot unlink its socket; clear the stale
        # path so the restart's bind is exercised the way deployments
        # would see it (the daemon also handles this itself).
        if os.path.exists(self.sock):
            os.unlink(self.sock)


def run_smoke(serve_bin, prog, diag_prog):
    with tempfile.TemporaryDirectory() as tmp:
        snap = os.path.join(tmp, "snap")
        d = Daemon(serve_bin, tmp, "smoke", f"--snapshot-dir={snap}")

        head, cold = d.expect("cold analyze", "--op=analyze", prog)
        if not head.startswith("OK "):
            V.fail(f"cold analyze status line: {head!r}")
        if "module: variant=" not in cold:
            V.fail(f"cold analyze payload missing module summary: {cold!r}")

        _, warm = d.expect("warm analyze", "--op=analyze", prog)
        if warm != cold:
            V.fail("warm analyze payload differs from cold:\n"
                   f"cold: {cold!r}\nwarm: {warm!r}")

        _, body = d.expect("diagnose", "--op=diagnose", diag_prog)
        if "critical-uses=" not in body:
            V.fail(f"diagnose payload missing verdict summary: {body!r}")

        # --budget-steps=1 exhausts the first phase budget immediately:
        # a deterministic DEGRADED reply, unlike a wall-clock deadline.
        head, _ = d.expect("budgeted analyze", "--op=analyze",
                           "--budget-steps=1", prog)
        if not head.startswith("DEGRADED "):
            V.fail(f"budget-steps=1 did not degrade: {head!r}")

        doc = d.status("smoke")
        if doc["replies"]["served_warm"] < 1:
            V.fail("status reports no warm replies after a warm analyze")
        if doc["requests"]["analyze"] != 3 or doc["requests"]["diagnose"] != 1:
            V.fail(f"status per-op counters off: {doc['requests']!r}")
        # One record per cacheable request: the cold analyze and the
        # diagnose each miss and write one record, the warm analyze hits
        # it, and the budgeted analyze bypasses the store.
        snapshot = doc["snapshot"]
        if snapshot["hits"] != 1 or snapshot["misses"] != 2:
            V.fail(f"expected 1 snapshot hit and 2 misses: {snapshot!r}")
        files = os.listdir(snap)
        records = [f for f in files if f.endswith(".snap")]
        temps = [f for f in files if f.endswith(".tmp")]
        if len(records) != 2 or temps:
            V.fail(f"expected exactly 2 .snap records and no .tmp files in "
                   f"the snapshot dir, found {sorted(files)!r}")
        d.shutdown()

        # Overload: queue-limit=0 sheds every analysis request with
        # RETRY_AFTER until the client gives up (exit 4), while control
        # ops bypass admission and still answer.
        d = Daemon(serve_bin, tmp, "shed", "--queue-limit=0")
        d.expect("analyze under --queue-limit=0", "--op=analyze",
                 "--max-retries=2", prog, code=4)
        doc = d.status("overload")
        if doc["daemon"]["shed"] < 3:
            V.fail(f"expected >=3 shed requests, status says "
                   f"{doc['daemon']['shed']}")
        d.shutdown()
    V.ok(" (smoke: cold==warm, one record per request, "
         "degraded, status, shed)")


def run_query(serve_bin, prog):
    with tempfile.TemporaryDirectory() as tmp:
        d = Daemon(serve_bin, tmp, "query")

        # Reachable pair — the pinned ids are documented in the input's
        # header comment. The reply must carry the verdict, the engine
        # the speed ladder promises, and a witness starting at the src.
        head, body = d.expect("reachable query", "--op=query",
                              "--query=1,3", prog)
        if not head.startswith("OK "):
            V.fail(f"reachable query status line: {head!r}")
        if "query 1 -> 3: reachable" not in body:
            V.fail(f"reachable query verdict missing: {body!r}")
        if "engine: unify" not in body:
            V.fail(f"query did not answer on the unification engine: {body!r}")
        if "witness: 1 -> " not in body:
            V.fail(f"reachable query reply has no witness: {body!r}")

        # Unreachable pair: a verdict, no witness line.
        _, body = d.expect("unreachable query", "--op=query", "--query=1,0",
                           prog)
        if "query 1 -> 0: unreachable" not in body:
            V.fail(f"unreachable query verdict missing: {body!r}")
        if "witness:" in body:
            V.fail(f"unreachable query reply carries a witness: {body!r}")

        # An out-of-range node id is a structured Error reply (exit 3),
        # not a daemon casualty.
        head, body = d.expect("out-of-range query", "--op=query",
                              "--query=1,4294967294", prog, code=3)
        if "out of range" not in head + body:
            V.fail(f"out-of-range query reply missing diagnostic: {body!r}")

        # A missing --query spec is a client-side usage error (exit 2)
        # before any I/O.
        d.expect("--op=query without --query=<src>,<sink>", "--op=query",
                 prog, code=2)

        # The status JSON must validate and count all three server-side
        # queries (the spec-less one never reached the daemon).
        doc = d.status("query")
        if doc["requests"]["query"] != 3:
            V.fail(f"status query counter off: {doc['requests']!r}")
        d.shutdown()
    V.ok(" (query: reachable witness, unreachable, "
         "out-of-range error, status counter)")


def run_crash(serve_bin, prog):
    with tempfile.TemporaryDirectory() as tmp:
        snap = os.path.join(tmp, "snap")

        # Leg 1: warm the store, kill -9, recover byte-identically.
        d = Daemon(serve_bin, tmp, "pre", f"--snapshot-dir={snap}")
        _, cold = d.expect("pre-crash analyze", "--op=analyze", prog)
        d.kill9()

        d = Daemon(serve_bin, tmp, "post", f"--snapshot-dir={snap}")
        _, warm = d.expect("post-crash analyze", "--op=analyze", prog)
        if warm != cold:
            V.fail("post-crash warm reply differs from pre-crash cold reply")
        if d.status("post-crash")["snapshot"]["hits"] < 1:
            V.fail("post-crash status reports no snapshot hits — the reply "
                   "was recomputed, not recovered")
        d.shutdown()

        # Leg 2: a torn snapshot write must never corrupt an answer. Arm
        # the torn-write fault for the first write, analyze (the reply is
        # computed in-process, so it is still correct), restart without
        # the fault, and require the recomputed reply to match.
        torn = os.path.join(tmp, "torn-snap")
        env = dict(os.environ, USHER_INJECT_IO_FAULT="snapshot-torn-write@1")
        d = Daemon(serve_bin, tmp, "torn", f"--snapshot-dir={torn}", env=env)
        _, first = d.expect("torn-write analyze", "--op=analyze", prog)
        if first != cold:
            V.fail("analyze under torn-write fault returned a wrong payload")
        d.shutdown()

        d = Daemon(serve_bin, tmp, "healed", f"--snapshot-dir={torn}")
        _, healed = d.expect("post-torn analyze", "--op=analyze", prog)
        if healed != cold:
            V.fail("reply after torn-write recovery differs from cold")
        doc = d.status("healed")
        d.shutdown()
        discarded = doc["snapshot"]["corrupt_discarded"]
        recovered = doc["snapshot"]["hits"]
        if discarded + recovered == 0:
            V.fail("torn-snapshot restart neither discarded a corrupt record "
                   "nor recovered an intact one")
    V.ok(f" (crash: kill -9 recovery byte-identical, "
         f"torn-write discarded={discarded})")


def run_fault(serve_bin, prog):
    with tempfile.TemporaryDirectory() as tmp:
        base = Daemon(serve_bin, tmp, "base",
                      f"--snapshot-dir={os.path.join(tmp, 'base-snap')}")
        _, expected = base.expect("baseline analyze", "--op=analyze", prog)
        base.shutdown()

        for site in IO_FAULT_SITES:
            # :once — the fault fires exactly at the first traversal, then
            # clears. A persistent socket-drop-reply would drop every
            # reply forever, which tests nothing beyond the client's
            # retry cap; firing once probes the recovery path instead.
            env = dict(os.environ,
                       USHER_INJECT_IO_FAULT=f"{site}@1:once")
            snap = os.path.join(tmp, f"snap-{site}")
            d = Daemon(serve_bin, tmp, f"fault-{site}",
                       f"--snapshot-dir={snap}", env=env)
            for attempt in ("first", "second"):
                if site == "parse-alloc" and attempt == "first":
                    # The armed allocation failure surfaces as a
                    # structured Error reply; the daemon must survive it.
                    d.expect(f"{site}: faulted analyze", "--op=analyze",
                             prog, code=3)
                    continue
                _, body = d.expect(f"{site}: {attempt} analyze",
                                   "--op=analyze", prog)
                if body != expected:
                    V.fail(f"{site}: {attempt} analyze payload diverged from "
                           f"the fault-free baseline")
            d.status(site)
            d.shutdown()
    V.ok(f" (fault campaign: "
         f"{len(IO_FAULT_SITES)} sites survived)")


if __name__ == "__main__":
    V.main(sys.argv, check_file, [
        ("--run-smoke", run_smoke, 3, 3),
        ("--run-query", run_query, 2, 2),
        ("--run-crash", run_crash, 2, 2),
        ("--run-fault", run_fault, 2, 2),
    ])

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

IO_FAULT_SITES = [
    "snapshot-read",
    "snapshot-write",
    "snapshot-torn-write",
    "socket-drop-reply",
    "parse-alloc",
]

STATUS_SHAPE = {
    "requests": ["total", "analyze", "diagnose", "query", "status", "ping",
                 "shutdown"],
    "replies": ["ok", "degraded", "error", "served_warm"],
    "snapshot": ["hits", "misses", "corrupt_discarded", "write_failures"],
    "daemon": ["queue_depth", "queue_limit", "shed", "dropped_replies",
               "protocol_errors", "workers"],
}


def fail(msg):
    print(f"check_serve_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_count(owner, obj, field):
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(f"{owner}: field {field!r} missing or not a count: {value!r}")
    return value


def check_status(doc, source="status"):
    for block, fields in STATUS_SHAPE.items():
        sub = doc.get(block)
        if not isinstance(sub, dict):
            fail(f"{source}: missing {block!r} block")
        for field in fields:
            check_count(f"{source}.{block}", sub, field)
    if not isinstance(doc["snapshot"].get("in_memory"), bool):
        fail(f"{source}: snapshot.in_memory missing or not a bool")
    reqs = doc["requests"]
    per_op = sum(reqs[f] for f in STATUS_SHAPE["requests"][1:])
    if per_op != reqs["total"]:
        fail(f"{source}: per-op requests sum to {per_op}, "
             f"expected total={reqs['total']}")
    if doc["replies"]["served_warm"] > doc["replies"]["ok"]:
        fail(f"{source}: served_warm exceeds ok replies")


def check_document(doc, source):
    if doc.get("schema") != "usher-serve-v1":
        fail(f"{source}: unexpected schema tag: {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind != "status":
        fail(f"{source}: unknown kind {kind!r}")
    check_status(doc, source)
    return kind


def check_file(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    kind = check_document(doc, path)
    print(f"check_serve_json: OK: {path} (kind={kind})")


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
                fail(f"daemon did not come up: {self.log.read().strip()!r}")
            time.sleep(0.02)

    def client(self, *args, timeout=30):
        proc = subprocess.run(
            [self.serve_bin, "--client", f"--socket={self.sock}", *args],
            capture_output=True, text=True, timeout=timeout,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def shutdown(self, expect_clean=True):
        code, _, err = self.client("--op=shutdown")
        if expect_clean and code != 0:
            fail(f"shutdown client exited {code}: {err.strip()!r}")
        daemon_code = self.proc.wait(timeout=10)
        self.log.close()
        if expect_clean and daemon_code != 0:
            fail(f"daemon exited {daemon_code} after shutdown")

    def kill9(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)
        self.log.close()
        # A SIGKILL'd daemon cannot unlink its socket; clear the stale
        # path so the restart's bind is exercised the way deployments
        # would see it (the daemon also handles this itself).
        if os.path.exists(self.sock):
            os.unlink(self.sock)


def reply_body(stdout):
    """Drop the client's one-line 'OK id=...' header, keep the payload."""
    head, sep, body = stdout.partition("\n")
    return head, body


def run_smoke(serve_bin, prog, diag_prog):
    with tempfile.TemporaryDirectory() as tmp:
        snap = os.path.join(tmp, "snap")
        d = Daemon(serve_bin, tmp, "smoke", f"--snapshot-dir={snap}")

        code, out, err = d.client("--op=analyze", prog)
        if code != 0:
            fail(f"cold analyze exited {code}: {err.strip()!r}")
        head, cold = reply_body(out)
        if not head.startswith("OK "):
            fail(f"cold analyze status line: {head!r}")
        if "module: variant=" not in cold:
            fail(f"cold analyze payload missing module summary: {cold!r}")

        code, out, err = d.client("--op=analyze", prog)
        if code != 0:
            fail(f"warm analyze exited {code}: {err.strip()!r}")
        _, warm = reply_body(out)
        if warm != cold:
            fail("warm analyze payload differs from cold:\n"
                 f"cold: {cold!r}\nwarm: {warm!r}")

        code, out, err = d.client("--op=diagnose", diag_prog)
        if code != 0:
            fail(f"diagnose exited {code}: {err.strip()!r}")
        _, body = reply_body(out)
        if "critical-uses=" not in body:
            fail(f"diagnose payload missing verdict summary: {body!r}")

        # --budget-steps=1 exhausts the first phase budget immediately:
        # a deterministic DEGRADED reply, unlike a wall-clock deadline.
        code, out, err = d.client("--op=analyze", "--budget-steps=1", prog)
        if code != 0:
            fail(f"budgeted analyze exited {code}: {err.strip()!r}")
        head, _ = reply_body(out)
        if not head.startswith("DEGRADED "):
            fail(f"budget-steps=1 did not degrade: {head!r}")

        code, out, err = d.client("--op=status")
        if code != 0:
            fail(f"status exited {code}: {err.strip()!r}")
        _, body = reply_body(out)
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as e:
            fail(f"status payload is not JSON: {e}\n{body!r}")
        check_document(doc, "status reply")
        if doc["replies"]["served_warm"] < 1:
            fail("status reports no warm replies after a warm analyze")
        if doc["requests"]["analyze"] != 3 or doc["requests"]["diagnose"] != 1:
            fail(f"status per-op counters off: {doc['requests']!r}")
        # One record per cacheable request: the cold analyze and the
        # diagnose each miss and write one record, the warm analyze hits
        # it, and the budgeted analyze bypasses the store.
        snapshot = doc["snapshot"]
        if snapshot["hits"] != 1 or snapshot["misses"] != 2:
            fail(f"expected 1 snapshot hit and 2 misses: {snapshot!r}")
        files = os.listdir(snap)
        records = [f for f in files if f.endswith(".snap")]
        temps = [f for f in files if f.endswith(".tmp")]
        if len(records) != 2 or temps:
            fail(f"expected exactly 2 .snap records and no .tmp files in "
                 f"the snapshot dir, found {sorted(files)!r}")
        d.shutdown()

        # Overload: queue-limit=0 sheds every analysis request with
        # RETRY_AFTER until the client gives up (exit 4), while control
        # ops bypass admission and still answer.
        d = Daemon(serve_bin, tmp, "shed", "--queue-limit=0")
        code, out, err = d.client("--op=analyze", "--max-retries=2", prog)
        if code != 4:
            fail(f"expected shed exit 4 under --queue-limit=0, got {code}: "
                 f"{out!r} {err.strip()!r}")
        code, out, err = d.client("--op=status")
        if code != 0:
            fail(f"status during overload exited {code}: {err.strip()!r}")
        _, body = reply_body(out)
        doc = json.loads(body)
        check_document(doc, "overload status reply")
        if doc["daemon"]["shed"] < 3:
            fail(f"expected >=3 shed requests, status says "
                 f"{doc['daemon']['shed']}")
        d.shutdown()
    print("check_serve_json: OK (smoke: cold==warm, one record per request, "
          "degraded, status, shed)")


def run_query(serve_bin, prog):
    with tempfile.TemporaryDirectory() as tmp:
        d = Daemon(serve_bin, tmp, "query")

        # Reachable pair — the pinned ids are documented in the input's
        # header comment. The reply must carry the verdict, the engine
        # the speed ladder promises, and a witness starting at the src.
        code, out, err = d.client("--op=query", "--query=1,3", prog)
        if code != 0:
            fail(f"reachable query exited {code}: {err.strip()!r}")
        head, body = reply_body(out)
        if not head.startswith("OK "):
            fail(f"reachable query status line: {head!r}")
        if "query 1 -> 3: reachable" not in body:
            fail(f"reachable query verdict missing: {body!r}")
        if "engine: unify" not in body:
            fail(f"query did not answer on the unification engine: {body!r}")
        if "witness: 1 -> " not in body:
            fail(f"reachable query reply has no witness: {body!r}")

        # Unreachable pair: a verdict, no witness line.
        code, out, err = d.client("--op=query", "--query=1,0", prog)
        if code != 0:
            fail(f"unreachable query exited {code}: {err.strip()!r}")
        _, body = reply_body(out)
        if "query 1 -> 0: unreachable" not in body:
            fail(f"unreachable query verdict missing: {body!r}")
        if "witness:" in body:
            fail(f"unreachable query reply carries a witness: {body!r}")

        # An out-of-range node id is a structured Error reply (exit 3),
        # not a daemon casualty.
        code, out, err = d.client("--op=query", "--query=1,4294967294", prog)
        if code != 3:
            fail(f"out-of-range query: expected Error reply (exit 3), "
                 f"got {code}: {out!r}")
        if "out of range" not in out:
            fail(f"out-of-range query reply missing diagnostic: {out!r}")

        # A missing --query spec is rejected client-side before any I/O.
        code, out, err = d.client("--op=query", prog)
        if code == 0:
            fail("client accepted --op=query without --query=<src>,<sink>")

        # The status JSON must validate and count all three server-side
        # queries (the spec-less one never reached the daemon).
        code, out, err = d.client("--op=status")
        if code != 0:
            fail(f"status exited {code}: {err.strip()!r}")
        doc = json.loads(reply_body(out)[1])
        check_document(doc, "query status reply")
        if doc["requests"]["query"] != 3:
            fail(f"status query counter off: {doc['requests']!r}")
        d.shutdown()
    print("check_serve_json: OK (query: reachable witness, unreachable, "
          "out-of-range error, status counter)")


def run_crash(serve_bin, prog):
    with tempfile.TemporaryDirectory() as tmp:
        snap = os.path.join(tmp, "snap")

        # Leg 1: warm the store, kill -9, recover byte-identically.
        d = Daemon(serve_bin, tmp, "pre", f"--snapshot-dir={snap}")
        code, out, err = d.client("--op=analyze", prog)
        if code != 0:
            fail(f"pre-crash analyze exited {code}: {err.strip()!r}")
        _, cold = reply_body(out)
        d.kill9()

        d = Daemon(serve_bin, tmp, "post", f"--snapshot-dir={snap}")
        code, out, err = d.client("--op=analyze", prog)
        if code != 0:
            fail(f"post-crash analyze exited {code}: {err.strip()!r}")
        _, warm = reply_body(out)
        if warm != cold:
            fail("post-crash warm reply differs from pre-crash cold reply")
        code, out, _ = d.client("--op=status")
        doc = json.loads(reply_body(out)[1])
        if doc["snapshot"]["hits"] < 1:
            fail("post-crash status reports no snapshot hits — the reply "
                 "was recomputed, not recovered")
        d.shutdown()

        # Leg 2: a torn snapshot write must never corrupt an answer. Arm
        # the torn-write fault for the first write, analyze (the reply is
        # computed in-process, so it is still correct), restart without
        # the fault, and require the recomputed reply to match.
        torn = os.path.join(tmp, "torn-snap")
        env = dict(os.environ, USHER_INJECT_IO_FAULT="snapshot-torn-write@1")
        d = Daemon(serve_bin, tmp, "torn", f"--snapshot-dir={torn}", env=env)
        code, out, err = d.client("--op=analyze", prog)
        if code != 0:
            fail(f"torn-write analyze exited {code}: {err.strip()!r}")
        _, first = reply_body(out)
        if first != cold:
            fail("analyze under torn-write fault returned a wrong payload")
        d.shutdown()

        d = Daemon(serve_bin, tmp, "healed", f"--snapshot-dir={torn}")
        code, out, err = d.client("--op=analyze", prog)
        if code != 0:
            fail(f"post-torn analyze exited {code}: {err.strip()!r}")
        _, healed = reply_body(out)
        if healed != cold:
            fail("reply after torn-write recovery differs from cold")
        code, out, _ = d.client("--op=status")
        doc = json.loads(reply_body(out)[1])
        d.shutdown()
        discarded = doc["snapshot"]["corrupt_discarded"]
        recovered = doc["snapshot"]["hits"]
        if discarded + recovered == 0:
            fail("torn-snapshot restart neither discarded a corrupt record "
                 "nor recovered an intact one")
    print(f"check_serve_json: OK (crash: kill -9 recovery byte-identical, "
          f"torn-write discarded={discarded})")


def run_fault(serve_bin, prog):
    with tempfile.TemporaryDirectory() as tmp:
        base = Daemon(serve_bin, tmp, "base",
                      f"--snapshot-dir={os.path.join(tmp, 'base-snap')}")
        code, out, err = base.client("--op=analyze", prog)
        if code != 0:
            fail(f"baseline analyze exited {code}: {err.strip()!r}")
        _, expected = reply_body(out)
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
                code, out, err = d.client("--op=analyze", prog)
                if site == "parse-alloc" and attempt == "first":
                    # The armed allocation failure surfaces as a
                    # structured Error reply; the daemon must survive it.
                    if code != 3:
                        fail(f"{site}: expected Error reply (exit 3) on the "
                             f"faulted request, got {code}: {out!r}")
                    continue
                if code != 0:
                    fail(f"{site}: {attempt} analyze exited {code}: "
                         f"{out!r} {err.strip()!r}")
                _, body = reply_body(out)
                if body != expected:
                    fail(f"{site}: {attempt} analyze payload diverged from "
                         f"the fault-free baseline")
            code, out, _ = d.client("--op=status")
            if code != 0:
                fail(f"{site}: daemon stopped answering status after fault")
            check_document(json.loads(reply_body(out)[1]),
                           f"{site} status reply")
            d.shutdown()
    print(f"check_serve_json: OK (fault campaign: "
          f"{len(IO_FAULT_SITES)} sites survived)")


def main(argv):
    if len(argv) == 5 and argv[1] == "--run-smoke":
        run_smoke(argv[2], argv[3], argv[4])
    elif len(argv) == 4 and argv[1] == "--run-query":
        run_query(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "--run-crash":
        run_crash(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "--run-fault":
        run_fault(argv[2], argv[3])
    elif len(argv) == 2 and not argv[1].startswith("-"):
        check_file(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)

#!/usr/bin/env python3
"""Graceful-interrupt driver for usher-cli and usher-fuzz.

Both CLIs install SIGINT/SIGTERM handlers that raise a cooperative stop
flag: the interpreter (usher-cli) and the campaign loop (usher-fuzz)
poll it, flush whatever partial report they have, and exit with the
distinct code 5. This driver sends the signal mid-run and checks the
contract end to end.

Usage:
  check_interrupt.py --cli CLI_BIN
      Start usher-cli on a generated infinite-loop program, SIGINT it
      mid-execution, and require exit code 5 plus an "interrupted after
      N steps" line in the flushed report.

  check_interrupt.py --fuzz FUZZ_BIN
      Start a usher-fuzz campaign far too long to finish, SIGINT it, and
      require exit code 5, a flushed JSON report with "interrupted":
      true, fewer completed runs than requested, and the usual
      usher-fuzz-v1 internal consistency (valid + invalid == runs).

On success prints one line: the script name, a colon and "OK". The
ctest entries key off that line, which this usage text must never
contain.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

from jsoncheck import Checker

V = Checker("check_interrupt", __doc__)

# Runs forever (TinyC has no timers): the only ways out are the step
# budget (200M steps, several seconds) or the interrupt being tested.
LOOP_PROGRAM = """\
func main() {
  i = 0;
loop:
  i = i + 1;
  goto loop;
}
"""


def interrupt_after(cmd, delay):
    """Run cmd, SIGINT it after `delay` seconds, return (code, out, err)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    time.sleep(delay)
    proc.send_signal(signal.SIGINT)
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        V.fail(f"{cmd[0]} did not exit within 30s of SIGINT")
    return proc.returncode, out, err


def run_cli(cli_bin):
    with tempfile.TemporaryDirectory() as tmp:
        prog = os.path.join(tmp, "loop.tc")
        with open(prog, "w") as f:
            f.write(LOOP_PROGRAM)
        code, out, err = interrupt_after([cli_bin, prog], 0.3)
        if code != 5:
            V.fail(f"usher-cli exited {code}, expected 5\n"
                   f"stdout: {out!r}\nstderr: {err!r}")
        if "interrupted after" not in out + err:
            V.fail(f"no flushed interrupt report\n"
                   f"stdout: {out!r}\nstderr: {err!r}")
    V.ok(" (cli: exit 5, partial report flushed)")


def run_fuzz(fuzz_bin):
    with tempfile.TemporaryDirectory() as tmp:
        out_json = os.path.join(tmp, "fuzz.json")
        requested = 1000000
        code, out, err = interrupt_after(
            [fuzz_bin, "--seed=1", f"--runs={requested}",
             f"--json={out_json}"], 0.5)
        if code != 5:
            V.fail(f"usher-fuzz exited {code}, expected 5\n"
                   f"stdout: {out!r}\nstderr: {err!r}")
        report = V.load(out_json)
        if report.get("interrupted") is not True:
            V.fail(f"flushed report not marked interrupted: "
                   f"{report.get('interrupted')!r}")
        runs = report.get("runs")
        if not isinstance(runs, int) or not 0 <= runs < requested:
            V.fail(f"completed runs {runs!r} not in [0, {requested})")
        if report.get("valid", -1) + report.get("invalid", -1) != runs:
            V.fail("partial report inconsistent: valid + invalid != runs")
    V.ok(f" (fuzz: exit 5, {runs} completed runs "
         f"flushed)")


def main(argv):
    if len(argv) == 3 and argv[1] == "--cli":
        run_cli(argv[2])
    elif len(argv) == 3 and argv[1] == "--fuzz":
        run_fuzz(argv[2])
    else:
        V.usage()


if __name__ == "__main__":
    main(sys.argv)

"""Shared core of the tools/check_*.py validators.

A validator makes one Checker from its script name and usage text. The
Checker prints the "<script>: FAIL: ..." line (exit 1), the "<script>:
OK..." line and the usage text (exit 2); loads documents; checks fields,
alone or through a shape table; runs a producer for --run-smoke; and
dispatches the command line.

A shape table maps each key to a sub-table or a leaf type: int is a count,
float a non-negative number, bool a boolean and str a non-empty string.
"""

import json
import os
import subprocess
import sys
import tempfile


class Checker:
    def __init__(self, name, usage_text):
        self.name = name
        self.usage_text = usage_text

    def fail(self, msg):
        print(f"{self.name}: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)

    def ok(self, suffix):
        print(f"{self.name}: OK{suffix}")

    def usage(self):
        print(self.usage_text, file=sys.stderr)
        sys.exit(2)

    def load(self, path):
        """The JSON object in path."""
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            self.fail(f"cannot load {path}: {e}")
        if not isinstance(doc, dict):
            self.fail(f"{path}: top level is not an object")
        return doc

    def count(self, obj, field, where, kind=int):
        """obj[field]: a kind, never a bool, at least 0."""
        value = obj.get(field)
        if not isinstance(value, kind) or isinstance(value, bool) or value < 0:
            what = "count" if kind is int else "non-negative number"
            self.fail(f"{where}: field {field!r} missing or not a {what}: "
                      f"{value!r}")
        return value

    def number(self, obj, field, where, kind=(int, float), low=0,
               strict=False):
        """obj[field]: a kind, never a bool, at least low, or above low
        when strict."""
        value = obj.get(field)
        if not isinstance(value, kind) or isinstance(value, bool) or (
            value <= low if strict else value < low
        ):
            self.fail(f"{where}: bad {field!r}: {value!r}")
        return value

    def string(self, obj, field, where):
        value = obj.get(field)
        if not isinstance(value, str) or not value:
            self.fail(f"{where}: field {field!r} missing or empty: {value!r}")
        return value

    def boolean(self, obj, field, where):
        value = obj.get(field)
        if not isinstance(value, bool):
            self.fail(f"{where}: field {field!r} missing or not a bool: "
                      f"{value!r}")
        return value

    def shape(self, obj, table, where):
        """Checks obj against a shape table; returns obj."""
        if not isinstance(obj, dict):
            self.fail(f"{where}: not an object")
        for key, spec in table.items():
            if isinstance(spec, dict):
                if not isinstance(obj.get(key), dict):
                    self.fail(f"{where}: missing {key!r} block")
                self.shape(obj[key], spec, f"{where}.{key}")
            elif spec is bool:
                self.boolean(obj, key, where)
            elif spec is str:
                self.string(obj, key, where)
            else:
                self.count(obj, key, where,
                           (int, float) if spec is float else int)
        return obj

    def run_smoke(self, cmd, check, ok_codes=(0,)):
        """Runs cmd with "{out}" in its arguments replaced by a path in a
        fresh temp dir; if it exits with one of ok_codes, check(path)."""
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.json")
            proc = subprocess.run([a.replace("{out}", out) for a in cmd],
                                  stdout=subprocess.DEVNULL)
            if proc.returncode not in ok_codes:
                self.fail(f"{' '.join(cmd)} exited with {proc.returncode}")
            check(out)

    def main(self, argv, check_file, modes=()):
        """FILE.json goes to check_file, `FLAG ARG...` to the fn of the
        (FLAG, fn, min_args, max_args or None) entry of modes it fits;
        anything else prints the usage text."""
        args = argv[1:]
        if len(args) == 1 and not args[0].startswith("-"):
            return check_file(args[0])
        for flag, fn, lo, hi in modes:
            n = len(args) - 1
            if args and args[0] == flag and lo <= n <= (hi or n):
                return fn(*args[1:])
        self.usage()

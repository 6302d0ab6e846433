#!/usr/bin/env python3
"""Every tcsctl command has a golden ctest that runs it.

Usage: cli_coverage_test.py CTEST BUILD_DIR TCSCTL

Reads the command names from `tcsctl help` (one row per kCommands entry) and the golden
ctests registered in BUILD_DIR (`ctest --show-only=json-v1`): cli_*, replay_*, paper_*
and trace_*. A golden ctest runs the first command named after the tcsctl binary on its
command line; paper_suite_test.py runs `tcsctl paper` itself. Fails, naming each one,
when a command has no golden ctest.
"""

import json
import os
import re
import subprocess
import sys

GOLDEN_PREFIXES = ("cli_", "replay_", "paper_", "trace_")
# Scripts that take the tcsctl binary and choose the command themselves.
RUNS_ITSELF = {"paper_suite_test.py": "paper"}

ctest, build_dir, tcsctl = sys.argv[1:4]

help_text = subprocess.run([tcsctl, "help"], stdout=subprocess.PIPE, text=True,
                           check=True).stdout
commands = re.findall(r"^  ([a-z0-9]+) ", help_text, re.MULTILINE)
if not commands:
    sys.exit("tcsctl help lists no commands")

listing = json.loads(subprocess.run([ctest, "--show-only=json-v1", "--test-dir", build_dir],
                                    stdout=subprocess.PIPE, check=True).stdout)


def command_of(argv):
    """The tcsctl command a golden ctest's command line runs, or None."""
    if tcsctl not in argv:
        return None
    after = argv[argv.index(tcsctl) + 1:]
    named = [arg for arg in after if arg in commands]
    if named:
        return named[0]
    scripts = [os.path.basename(arg) for arg in argv[:argv.index(tcsctl)]]
    return next((RUNS_ITSELF[s] for s in scripts if s in RUNS_ITSELF), None)


covered = {}
for test in listing["tests"]:
    if test["name"].startswith(GOLDEN_PREFIXES):
        command = command_of(test.get("command", []))
        if command is not None:
            covered.setdefault(command, test["name"])

missing = [c for c in commands if c not in covered]
for c in commands:
    print(f"{c:12} {covered.get(c, '-- no golden ctest --')}")
if missing:
    sys.exit("tcsctl commands with no golden ctest: " + ", ".join(missing))

#!/usr/bin/env python3
"""One command's stdout, byte-for-byte against its golden file.

Usage: paper_golden_test.py GOLDEN_FILE COMMAND [ARGS...]

The commands are `tcsctl replay` of a checked-in trace, `tcsctl traffic` and the
examples (the paper artifacts go through paper_suite_test.py). Their output is
deterministic and does not depend on build type, so any drift is a change in what the
simulator reports. With TCS_REGEN_GOLDEN set (the switch golden_report_test honors;
tools/regen_golden.sh sets it) the command's output is written to GOLDEN_FILE instead
of compared.
"""

import difflib
import os
import subprocess
import sys

golden, command = sys.argv[1], sys.argv[2:]
actual = subprocess.run(command, stdout=subprocess.PIPE, check=True).stdout

if os.environ.get("TCS_REGEN_GOLDEN") is not None:
    with open(golden, "wb") as f:
        f.write(actual)
    sys.exit(0)

with open(golden, "rb") as f:
    expected = f.read()
if actual != expected:
    sys.stdout.writelines(difflib.unified_diff(
        expected.decode(errors="replace").splitlines(keepends=True),
        actual.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden, tofile=" ".join(command)))
    sys.exit(f"{' '.join(command)} no longer prints {golden}")

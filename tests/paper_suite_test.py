#!/usr/bin/env python3
"""`tcsctl paper`, the whole suite, against the artifact goldens end to end.

Usage: paper_suite_test.py GOLDEN_DIR TCSCTL

The suite prints every artifact in table order, so its stdout must be the artifacts'
goldens (GOLDEN_DIR/<artifact>.txt) concatenated in that order. The order is the one
`tcsctl paper <unknown name>` lists on stderr. The suite has no golden of its own: with
TCS_REGEN_GOLDEN set (tools/regen_golden.sh sets it) the paper_<artifact> tests re-bless
the pieces, and this test checks nothing.
"""

import difflib
import os
import subprocess
import sys

golden_dir, tcsctl = sys.argv[1], sys.argv[2]
if os.environ.get("TCS_REGEN_GOLDEN") is not None:
    sys.exit(0)

listing = subprocess.run([tcsctl, "paper", "?"], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
if listing.returncode != 2 or listing.stdout:
    sys.exit("tcsctl paper ? should list the artifacts on stderr and exit 2")
names = [line.strip() for line in listing.stderr.decode().splitlines()[1:]]
expected = b""
for name in names:
    with open(os.path.join(golden_dir, name + ".txt"), "rb") as f:
        expected += f.read()

actual = subprocess.run([tcsctl, "paper"], stdout=subprocess.PIPE, check=True).stdout
if actual != expected:
    sys.stdout.writelines(difflib.unified_diff(
        expected.decode(errors="replace").splitlines(keepends=True),
        actual.decode(errors="replace").splitlines(keepends=True),
        fromfile=f"{golden_dir}/<{len(names)} artifacts in table order>",
        tofile="tcsctl paper"))
    sys.exit("tcsctl paper no longer prints its artifacts' goldens in table order")

#!/usr/bin/env python3
"""One tcsctl sweep at --jobs=1 and --jobs=4, both against one golden.

Usage: cli_golden_test.py GOLDEN_STEM TCSCTL COMMAND [ARGS...]

Runs `TCSCTL COMMAND ARGS... --jobs=N` for N = 1 and N = 4, each in a scratch
directory, so a relative --report-out or --postmortem-dir lands there. Both runs' stdout
must equal GOLDEN_STEM.txt. A run that writes report.json (--report-out=report.json)
must match GOLDEN_STEM.json with every wall_ms zeroed, the one nondeterministic field,
as golden_report_test and tools/regen_golden.sh --check do. The bundles a run leaves in
pm/ (--postmortem-dir=pm; stdout names them) must be the same files, byte for byte, at
both worker counts. With TCS_REGEN_GOLDEN set (tools/regen_golden.sh sets it) the
outputs are written to the golden files instead of compared, once the two worker counts
agree.
"""

import difflib
import os
import re
import subprocess
import sys
import tempfile

stem, command = sys.argv[1], sys.argv[2:]


def run(jobs):
    """The run's stdout and zeroed report by golden suffix, and its bundles by name."""
    with tempfile.TemporaryDirectory() as tmp:
        stdout = subprocess.run(command + [f"--jobs={jobs}"], cwd=tmp,
                                stdout=subprocess.PIPE, check=True).stdout
        outputs = {".txt": stdout}
        report = os.path.join(tmp, "report.json")
        if os.path.exists(report):
            with open(report, "rb") as f:
                outputs[".json"] = re.sub(rb'"wall_ms":[-+0-9.eE]+', b'"wall_ms":0',
                                          f.read())
        bundles = {}
        pm = os.path.join(tmp, "pm")
        for name in sorted(os.listdir(pm)) if os.path.isdir(pm) else []:
            with open(os.path.join(pm, name), "rb") as f:
                bundles[name] = f.read()
        return outputs, bundles


label = " ".join(command[1:])
serial = run(1)
if run(4) != serial:
    sys.exit(f"tcsctl {label} prints or writes different bytes at --jobs=1 and --jobs=4")
outputs = serial[0]

if os.environ.get("TCS_REGEN_GOLDEN") is not None:
    for suffix, actual in outputs.items():
        with open(stem + suffix, "wb") as f:
            f.write(actual)
    sys.exit(0)

failed = False
for suffix in (".txt", ".json"):
    golden = stem + suffix
    if not os.path.exists(golden):
        if suffix in outputs:
            sys.exit(f"tcsctl {label} writes a report but {golden} does not exist")
        continue
    with open(golden, "rb") as f:
        expected = f.read()
    actual = outputs.get(suffix, b"")
    if actual != expected:
        failed = True
        sys.stdout.writelines(difflib.unified_diff(
            expected.decode(errors="replace").splitlines(keepends=True),
            actual.decode(errors="replace").splitlines(keepends=True),
            fromfile=golden, tofile=f"tcsctl {label}"))
if failed:
    sys.exit(f"tcsctl {label} no longer matches {stem}.*")

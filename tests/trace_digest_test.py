#!/usr/bin/env python3
"""One traced run's three outputs, by SHA-256 digest against a golden digest file.

Usage: trace_digest_test.py GOLDEN_FILE TCSCTL EXPERIMENT [ARGS...]

Runs `TCSCTL trace EXPERIMENT ARGS...` in a scratch directory and hashes what it
writes: the Chrome trace JSON, the sampled gauges CSV and the JSON report. The report's
wall_ms (the one nondeterministic field) is zeroed before hashing, as golden_report_test
and tools/regen_golden.sh --check do. The trace runs to megabytes, so the golden file
holds the digests, one `<sha256>  <file>` line each, instead of the bytes. With
TCS_REGEN_GOLDEN set (tools/regen_golden.sh sets it) the digests are written to
GOLDEN_FILE instead of compared.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

golden, tcsctl, experiment, args = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
outputs = {"trace.json": "--out", "metrics.csv": "--metrics-out",
           "report.json": "--report-out"}

with tempfile.TemporaryDirectory() as tmp:
    command = [tcsctl, "trace", experiment] + args + [
        f"{flag}={os.path.join(tmp, name)}" for name, flag in outputs.items()]
    subprocess.run(command, stdout=subprocess.DEVNULL, check=True)
    lines = []
    for name in outputs:
        with open(os.path.join(tmp, name), "rb") as f:
            data = f.read()
        if name == "report.json":
            data = re.sub(rb'"wall_ms":[-+0-9.eE]+', b'"wall_ms":0', data)
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}\n")
actual = "".join(lines)

if os.environ.get("TCS_REGEN_GOLDEN") is not None:
    with open(golden, "w") as f:
        f.write(actual)
    sys.exit(0)

with open(golden) as f:
    expected = f.read()
if actual != expected:
    sys.stdout.write(f"expected:\n{expected}actual:\n{actual}")
    sys.exit(f"tcsctl trace {' '.join([experiment] + args)} no longer matches {golden}")

#!/usr/bin/env python3
"""The files one tcsctl run writes, by SHA-256 digest against a golden digest file.

Usage: trace_digest_test.py GOLDEN_FILE TCSCTL FILES SUBCOMMAND [ARGS...]

Runs `TCSCTL SUBCOMMAND ARGS...` in a scratch directory, with every `{dir}` in ARGS
replaced by that directory, and hashes FILES (comma-separated names the run writes
there): a trace JSON, a gauges CSV, a report, a postmortem bundle. A report's wall_ms
(the one nondeterministic field) is zeroed before hashing, as golden_report_test and
tools/regen_golden.sh --check do. Traces run to megabytes, so the golden file holds the
digests, one `<sha256>  <file>` line each, instead of the bytes. With TCS_REGEN_GOLDEN
set (tools/regen_golden.sh sets it) the digests are written to GOLDEN_FILE instead of
compared.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

golden, tcsctl, files = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
args = sys.argv[4:]

with tempfile.TemporaryDirectory() as tmp:
    command = [tcsctl] + [arg.replace("{dir}", tmp) for arg in args]
    subprocess.run(command, stdout=subprocess.DEVNULL, check=True, cwd=tmp)
    lines = []
    for name in files:
        with open(os.path.join(tmp, name), "rb") as f:
            data = f.read()
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
    sys.exit(f"tcsctl {' '.join(args)} no longer matches {golden}")

#!/usr/bin/env python3
"""`tcsctl paper`, run once, against the artifact goldens slice by slice.

Usage: paper_suite_test.py GOLDEN_DIR OUTPUT TCSCTL
       paper_suite_test.py GOLDEN_DIR OUTPUT --artifact=NAME

The first form runs the whole suite once and saves its stdout to OUTPUT. The suite
prints every artifact in table order (the order `tcsctl paper <unknown name>` lists on
stderr), so its stdout must be the artifacts' goldens (GOLDEN_DIR/<artifact>.txt)
concatenated in that order. On a mismatch it names the first artifact, in table order,
whose slice differs from its golden and shows the diff. With TCS_REGEN_GOLDEN set
(tools/regen_golden.sh sets it) it first re-blesses each golden from `tcsctl paper
<artifact>`, so the single-artifact runs write the goldens that the suite is then held
to.

The second form checks one artifact's slice of the saved OUTPUT against its golden,
without running anything: the per-artifact ctests, which run after the first form.

Every artifact opens with a banner, its golden's first two lines (a rule and the
title); an artifact's slice runs from its banner to the next artifact's banner.
"""

import difflib
import os
import subprocess
import sys


def read(path):
    with open(path, "rb") as f:
        return f.read()


def banner(golden):
    return b"".join(golden.splitlines(keepends=True)[:2])


def slice_of(output, golden, goldens):
    """The bytes of `output` from `golden`'s banner to the next banner, or b""."""
    start = output.find(banner(golden))
    if start < 0:
        return b""
    ends = [output.find(banner(other), start + 1) for other in goldens]
    return output[start:min([end for end in ends if end > start] + [len(output)])]


def diff(expected, actual, fromfile, tofile):
    sys.stdout.writelines(difflib.unified_diff(
        expected.decode(errors="replace").splitlines(keepends=True),
        actual.decode(errors="replace").splitlines(keepends=True),
        fromfile=fromfile, tofile=tofile))


def golden_path(name):
    return os.path.join(golden_dir, name + ".txt")


golden_dir, output_path, last = sys.argv[1], sys.argv[2], sys.argv[3]
if last.startswith("--artifact="):
    name = last[len("--artifact="):]
    goldens = [read(os.path.join(golden_dir, f))
               for f in sorted(os.listdir(golden_dir)) if f.endswith(".txt")]
    expected = read(golden_path(name))
    actual = slice_of(read(output_path), expected, goldens)
    if actual != expected:
        diff(expected, actual, golden_path(name), f"{output_path} ({name})")
        sys.exit(f"tcsctl paper no longer prints {golden_path(name)} for {name}")
    sys.exit(0)

tcsctl = last
listing = subprocess.run([tcsctl, "paper", "?"], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
if listing.returncode != 2 or listing.stdout:
    sys.exit("tcsctl paper ? should list the artifacts on stderr and exit 2")
names = [line.strip() for line in listing.stderr.decode().splitlines()[1:]]

if os.environ.get("TCS_REGEN_GOLDEN") is not None:
    for name in names:
        single = subprocess.run([tcsctl, "paper", name], stdout=subprocess.PIPE,
                                check=True).stdout
        with open(golden_path(name), "wb") as f:
            f.write(single)

actual = subprocess.run([tcsctl, "paper"], stdout=subprocess.PIPE, check=True).stdout
with open(output_path, "wb") as f:
    f.write(actual)

goldens = {name: read(golden_path(name)) for name in names}
if actual == b"".join(goldens[name] for name in names):
    sys.exit(0)
for name in names:
    piece = slice_of(actual, goldens[name], goldens.values())
    if piece != goldens[name]:
        diff(goldens[name], piece, golden_path(name), f"tcsctl paper ({name})")
        sys.exit(f"tcsctl paper: {name} is the first artifact that no longer prints "
                 f"{golden_path(name)}")
diff(b"".join(goldens[name] for name in names), actual,
     f"{golden_dir}/<{len(names)} artifacts in table order>", "tcsctl paper")
sys.exit("tcsctl paper prints every artifact's golden, but not in table order alone")

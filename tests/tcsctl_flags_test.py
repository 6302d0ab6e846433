#!/usr/bin/env python3
"""The single-run tcsctl commands honor --seconds and --seed.

Usage: tcsctl_flags_test.py PATH_TO_TCSCTL

e2e, sizing, typing and paging used to accept both flags through the global flag list
and then run their fixed defaults (30 s or 60 s, seed 1). Each check below pairs a
default run with a flagged one whose output must differ; the configurations are ones
whose model actually draws on the seed (Poisson background load, a saturated TSE,
the paging hog's demand margin).
"""

import re
import subprocess
import sys


def run(*args, expect_rc=0):
    proc = subprocess.run([TCSCTL, *args], capture_output=True, text=True)
    if proc.returncode != expect_rc:
        sys.exit(f"tcsctl {' '.join(args)} exited {proc.returncode}, expected {expect_rc}"
                 f"\n{proc.stderr}")
    return proc.stdout


def updates(output):
    match = re.search(r"(\d+) updates", output)
    if match is None:
        sys.exit(f"no update count in: {output!r}")
    return int(match.group(1))


def differ(what, a, b):
    if a == b:
        sys.exit(f"{what}: both runs printed {a!r}")


TCSCTL = sys.argv[1]

# --seconds: 3 s of 20 Hz typing is ~60 updates, the 30 s default ~600.
if updates(run("e2e", "--os=tse", "--seconds=3")) >= 100:
    sys.exit("e2e ignored --seconds")
if updates(run("typing", "--os=tse", "--sinks=0", "--seconds=3")) >= 100:
    sys.exit("typing ignored --seconds")
differ("sizing --seconds", run("sizing", "--os=tse", "--users=4", "--seconds=3"),
       run("sizing", "--os=tse", "--users=4", "--seconds=6"))

# --seed.
e2e = ("e2e", "--os=tse", "--background-mbps=4", "--seconds=3")
differ("e2e --seed", run(*e2e, "--seed=1"), run(*e2e, "--seed=9"))
sizing = ("sizing", "--os=tse", "--users=12", "--seconds=3")
differ("sizing --seed", run(*sizing, "--seed=1"), run(*sizing, "--seed=9"))
paging = ("paging", "--os=linux", "--runs=2")
differ("paging --seed", run(*paging, "--seed=1"), run(*paging, "--seed=9"))
# The typing model draws nothing from its seed at these settings; check it is accepted
# and that the default stays seed 1.
typing = ("typing", "--os=tse", "--sinks=2", "--seconds=3")
if run(*typing, "--seed=1") != run(*typing):
    sys.exit("typing's default seed is no longer 1")

# paging has no duration to set: the flag is refused instead of silently ignored.
run("paging", "--os=linux", "--runs=1", "--seconds=5", expect_rc=2)
print("single-run commands honor --seconds and --seed")

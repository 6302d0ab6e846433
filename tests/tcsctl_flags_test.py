#!/usr/bin/env python3
"""tcsctl takes exactly the flags each command reads, and only well-formed values.

Usage: tcsctl_flags_test.py PATH_TO_TCSCTL

Accepted: e2e, sizing, typing and paging honor --seconds and --seed. Each check pairs a
default run with a flagged one whose output must differ; the configurations are ones
whose model actually draws on the seed (Poisson background load, a saturated TSE, the
paging hog's demand margin).

Rejected: a flag the command does not read, a value it cannot parse or use, a positional
argument it does not read, or a --postmortem-dir it cannot create exits 2 before
anything runs, with nothing on stdout and the offending flag or argument named on
stderr. Every command has a case of each, and
trace, postmortem and sweep are checked per experiment: a flag counts as read only where
the run uses it.
"""

import os
import re
import subprocess
import sys
import tempfile


def run(*args, expect_rc=0):
    proc = subprocess.run([TCSCTL, *args], capture_output=True, text=True)
    if proc.returncode != expect_rc:
        sys.exit(f"tcsctl {' '.join(args)} exited {proc.returncode}, expected {expect_rc}"
                 f"\n{proc.stderr}")
    return proc


def stdout(*args):
    return run(*args).stdout


def updates(output):
    match = re.search(r"(\d+) updates", output)
    if match is None:
        sys.exit(f"no update count in: {output!r}")
    return int(match.group(1))


def differ(what, a, b):
    if a == b:
        sys.exit(f"{what}: both runs printed {a!r}")


def rejected(*args, names):
    proc = run(*args, expect_rc=2)
    if proc.stdout:
        sys.exit(f"tcsctl {' '.join(args)} printed {proc.stdout!r} before refusing")
    for name in names:
        if name not in proc.stderr:
            sys.exit(f"tcsctl {' '.join(args)}: stderr does not name {name}: "
                     f"{proc.stderr!r}")


TCSCTL = sys.argv[1]

# --seconds: 3 s of 20 Hz typing is ~60 updates, the 30 s default ~600.
if updates(stdout("e2e", "--os=tse", "--seconds=3")) >= 100:
    sys.exit("e2e ignored --seconds")
if updates(stdout("typing", "--os=tse", "--sinks=0", "--seconds=3")) >= 100:
    sys.exit("typing ignored --seconds")
differ("sizing --seconds", stdout("sizing", "--os=tse", "--users=4", "--seconds=3"),
       stdout("sizing", "--os=tse", "--users=4", "--seconds=6"))

# --seed.
e2e = ("e2e", "--os=tse", "--background-mbps=4", "--seconds=3")
differ("e2e --seed", stdout(*e2e, "--seed=1"), stdout(*e2e, "--seed=9"))
sizing = ("sizing", "--os=tse", "--users=12", "--seconds=3")
differ("sizing --seed", stdout(*sizing, "--seed=1"), stdout(*sizing, "--seed=9"))
paging = ("paging", "--os=linux", "--runs=2")
differ("paging --seed", stdout(*paging, "--seed=1"), stdout(*paging, "--seed=9"))
# The typing model draws nothing from its seed at these settings; check it is accepted
# and that the default stays seed 1.
typing = ("typing", "--os=tse", "--sinks=2", "--seconds=3")
if stdout(*typing, "--seed=1") != stdout(*typing):
    sys.exit("typing's default seed is no longer 1")

# Malformed values fail instead of falling back to the default.
rejected("typing", "--os=tse", "--sinks=abc", "--seconds=2", names=["--sinks"])
rejected("rtt", "--mbps=fast", names=["--mbps"])
rejected("idle", "--csv=maybe", names=["--csv"])
rejected("typing", "--os=beos", names=["--os"])
rejected("sweep", "--sinks=0,five", names=["--sinks"])

# Well-formed numbers outside what the run can use fail the same way, instead of
# aborting the run or being ignored.
rejected("whatif", "--speedup=0", names=["--speedup"])
rejected("whatif", "--speedup=-1", names=["--speedup"])
rejected("whatif", "--rtt-delta-ms=-40", names=["--rtt-delta-ms"])
rejected("gif", "--frames=0", names=["--frames"])
rejected("gif", "--seconds=0", names=["--seconds"])
rejected("webpage", "--seconds=0", names=["--seconds"])
rejected("rtt", "--mbps=-1", names=["--mbps"])
rejected("traffic", "--steps=-3", names=["--steps"])
rejected("idle", "--seconds=-1", names=["--seconds"])
rejected("idle", "--seconds=0", names=["--seconds"])
rejected("paging", "--runs=-1", names=["--runs"])
rejected("paging", "--runs=0", names=["--runs"])
rejected("chaos", "--flap-ms=-5", names=["--flap-ms"])
rejected("blame", "--flap-ms=-3", names=["--flap-ms"])
rejected("e2e", "--background-mbps=-1", names=["--background-mbps"])
rejected("sweep", "--experiment=e2e", "--background-mbps=-2", names=["--background-mbps"])
rejected("postmortem", "consolidation", "--rewind-ms=-5", names=["--rewind-ms"])
# A run of no length, a flap that never recurs, a negative timer or threshold, an SLO
# limit that switches its objective off by being negative, and a fraction no run can
# meet: each would run and print a row that misreports it.
rejected("rtt", "--seconds=0", names=["--seconds"])
rejected("rtt", "--seconds=-5", names=["--seconds"])
rejected("chaos", "--flap-ms=50", "--flap-every-ms=0", names=["--flap-every-ms"])
rejected("postmortem", "chaos", "--flap-every-ms=-1", names=["--flap-every-ms"])
rejected("chaos", "--disconnect-ms=-5", names=["--disconnect-ms"])
rejected("chaos", "--threshold-ms=-5", names=["--threshold-ms"])
rejected("wan", "--threshold-ms=-5", names=["--threshold-ms"])
rejected("blame", "--threshold-ms=-5", names=["--threshold-ms"])
rejected("wan", "--starve-after-ms=-1", names=["--starve-after-ms"])
rejected("chaos", "--slo-p99-ms=-1", names=["--slo-p99-ms"])
rejected("wan", "--slo-backlog-kb=-1", names=["--slo-backlog-kb"])
rejected("capacity", "--slo-availability=2", names=["--slo-availability"])
rejected("sweep", "--experiment=typing", "--slo-starved=5", names=["--slo-starved"])

# A --postmortem-dir that cannot be created is refused before anything is simulated.
with tempfile.TemporaryDirectory() as tmp:
    blocker = os.path.join(tmp, "not_a_dir")
    with open(blocker, "w") as f:
        f.write("a regular file\n")
    rejected("postmortem", "typing", f"--postmortem-dir={blocker}/sub",
             names=["--postmortem-dir"])

# For every command, a flag it does not read (most are flags other commands take).
with tempfile.TemporaryDirectory() as tmp:
    trace_file = os.path.join(tmp, "session.trace")
    with open(trace_file, "w") as f:
        f.write("script demo\nstep 10\nkey press 30\nkey release 30\n")
    stdout("replay", trace_file)  # the file itself is fine
    rejected("replay", trace_file, "--seed=3", names=["--seed"])
    rejected("replay", trace_file, "extra", names=["'extra'"])
    rejected("replay", trace_file, "--protocol=ica", names=["--protocol"])

rejected("idle", "--sinks=2", names=["--sinks"])
# Three flags typing does not read; the message names the first in name order.
rejected("typing", "--os=tse", "--profile=satellite", "--loss=0.5", "--degrade=1",
         names=["--degrade"])
rejected("paging", "--os=linux", "--runs=1", "--seconds=5", names=["--seconds"])
rejected("traffic", "--seed=2", names=["--seed"])
rejected("webpage", "--protocol=x", names=["--protocol"])
rejected("gif", "--seed=2", names=["--seed"])
rejected("rtt", "--os=tse", names=["--os"])
rejected("sizing", "--sinks=2", names=["--sinks"])
rejected("e2e", "--csv", names=["--csv"])
rejected("capacity", "--users=4", names=["--users"])
rejected("chaos", "--users=3", names=["--users"])
rejected("wan", "--sinks=2", names=["--sinks"])
rejected("whatif", "--slo-p99-ms=50", names=["--slo-p99-ms"])
rejected("blame", "--slo-p99-ms=50", names=["--slo-p99-ms"])
rejected("paper", "table_paging", "--os=tse", names=["--os"])
rejected("help", "--os=tse", names=["--os"])

# Per experiment: sweep, trace and postmortem accept only what that experiment reads.
rejected("sweep", "--experiment=sizing", "--sinks=5", names=["--sinks"])
rejected("sweep", "--experiment=typing", "--users=5", names=["--users"])
rejected("sweep", "--experiment=sizing", "--slo-p99-ms=5", names=["--slo-p99-ms"])
rejected("trace", "typing", "--protect", names=["--protect"])
rejected("trace", "paging", "--seconds=5", names=["--seconds"])
rejected("trace", "gif", "--sinks=2", names=["--sinks"])
rejected("postmortem", "typing", "--burst-ms=300", names=["--burst-ms"])
rejected("postmortem", "chaos", "--users=3", names=["--users"])
# A postmortem prints no perception-threshold figures, so --threshold-ms changes nothing.
rejected("postmortem", "chaos", "--threshold-ms=5", names=["--threshold-ms"])
rejected("postmortem", "consolidation", "--checkpoint-every-ms=100",
         names=["--checkpoint-every-ms"])
# Rewind re-runs the experiment; there is no checkpoint cadence to set.
rejected("postmortem", "consolidation", "--rewind-ms=500", "--checkpoint-every-ms=100",
         names=["--checkpoint-every-ms"])

# For every command, a positional argument it does not read.
rejected("idle", "extra", names=["'extra'"])
rejected("typing", "--seconds=1", "extra", names=["'extra'"])
rejected("paging", "extra", names=["'extra'"])
rejected("traffic", "extra", names=["'extra'"])
rejected("webpage", "extra", names=["'extra'"])
rejected("gif", "extra", names=["'extra'"])
rejected("rtt", "oops", names=["'oops'"])
rejected("sizing", "extra", names=["'extra'"])
rejected("sweep", "extra", names=["'extra'"])
rejected("capacity", "extra", names=["'extra'"])
rejected("chaos", "extra", names=["'extra'"])
rejected("wan", "extra", names=["'extra'"])
rejected("whatif", "extra", names=["'extra'"])
rejected("blame", "extra", names=["'extra'"])
rejected("postmortem", "typing", "extra", names=["'extra'"])
rejected("trace", "typing", "extra", names=["'extra'"])
rejected("paper", "fig8_rtt", "extra", names=["'extra'"])
rejected("help", "extra", names=["'extra'"])

# Unknown names.
rejected("paper", "nope", names=["'nope'", "table_paging"])
rejected("bogus", names=["'bogus'"])
print("tcsctl honors the flags and arguments each command reads and refuses the rest")

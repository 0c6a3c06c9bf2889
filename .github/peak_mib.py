"""peak_mib(*argv): the peak RSS, in MiB, of `toricover *argv` run in a
fresh process, whose stdout is discarded.  The ru_maxrss that os.wait4
returns for the child is the larger of its own peak and this process's
RSS when it forked, since the fork starts as a copy of this process; so
a step measures while it is small, before it loads anything large.  A
command that exits non-zero ends the caller with that status named.
Shared by the workflow's peak-memory steps, which put this directory on
PYTHONPATH."""

import os
import subprocess
import sys


def peak_mib(*argv):
    child = subprocess.Popen(["toricover", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if status != 0:
        sys.exit(f"toricover {' '.join(argv)}: exit status {status}")
    return usage.ru_maxrss / 1024

"""peak_mib(*argv): the peak RSS, in MiB, of `toricover *argv` run in a
fresh process, whose stdout is discarded.  The ru_maxrss that os.wait4
returns for the child is its own peak.  A command that exits non-zero
ends the caller with that status named.  Shared by the workflow's
peak-memory steps, which put this directory on PYTHONPATH."""

import os
import subprocess
import sys


def peak_mib(*argv):
    child = subprocess.Popen(["toricover", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if status != 0:
        sys.exit(f"toricover {' '.join(argv)}: exit status {status}")
    return usage.ru_maxrss / 1024

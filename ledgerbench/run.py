#!/usr/bin/env python3
"""Build the ledger benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 ledgerbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0
    python3 ledgerbench/run.py --selftest

The build's output goes to standard error; the benchmark's standard
output, whose last line is the JSON result, passes through unchanged.
The exit code is the benchmark's, or 1 when the build fails.
"""

import ctypes
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "ledgerbench", "main.exe")


ADDR_NO_RANDOMIZE = 0x0040000


def no_aslr():
    """Turn address-space randomisation off for this process and the
    processes it starts (the personality flag survives exec). Where the
    call is not available the benchmark runs with it on."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./ledgerbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("ledgerbench: build failed", file=sys.stderr)
        return 1
    # The benchmark runs on one vCPU: its server, connections and reopen
    # processes then hand work over on that CPU instead of waking a halted
    # one, and the time the hypervisor steals from it can be read from
    # that CPU's line of /proc/stat.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Without address-space randomisation every process of the benchmark
    # lays its heap out alike: with it, one verification of identical data
    # took 14 to 21 us per row version from one process to the next on the
    # reference host, without it 20 to 22.
    no_aslr()
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

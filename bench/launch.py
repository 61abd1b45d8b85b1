"""Run a command as a child of this small process, and time a fixed
reference kernel on the same CPU while the child runs.

    python3 -S bench/launch.py <result.json> <program> <args>...

Writes one JSON object to the file named first: the child's exit code,
CPU seconds and max RSS (from wait4), the wall seconds until this process
saw it exit, and the CPU seconds of each reference-kernel run.

The child and the kernel share one CPU (the caller pins it), so the
kernel's CPU time is measured on the same core, in the same moments, as
the child's: their ratio does not move with the load other guests put on
a shared machine.

A child's max RSS includes the memory of the process that spawned it, up
to the child's exec.  Spawning the CLI from this bare interpreter, before
the kernel first runs, keeps that floor at a few MB.
"""

import os
import sys
import time
from itertools import product

LEADING = ((7, 0, 0), (0, 45, 0), (0, 0, 38), (5, 30, 1), (3, 3, 30))


def reference_kernel():
    """A fixed pure-Python job shaped like the program's inner loops:
    a staircase of exponent tuples tested against leading terms, kept in
    a dict."""
    kept = {}
    for e in product(range(6), range(45), range(38)):
        if not any(all(a >= b for a, b in zip(e, lt)) for lt in LEADING):
            kept[e] = len(kept)


def main():
    result, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    ref = []
    while True:
        c0 = time.process_time()
        reference_kernel()
        ref.append(time.process_time() - c0)
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
    wall = time.perf_counter() - t0
    with open(result, "w", encoding="utf-8") as f:
        f.write('{"code": %d, "cpu_s": %r, "maxrss_kb": %d, "wall_s": %r, '
                '"ref_s": %r}\n'
                % (os.waitstatus_to_exitcode(status),
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss, wall, ref))


if __name__ == "__main__":
    main()

"""Run one twodist command in a fresh interpreter, the way a user runs it.

Usage: python3 perfbench/child.py <twodist arguments...>
       python3 perfbench/child.py y2_curve_search XMIN XMAX ZMIN ZMAX

The first form is what the ``twodist`` console script does.  The second
calls the library entry ``dioph.y2_curve_search`` and prints its hits as
JSON.  After the command finishes, one line is written to stderr:

    perfbench-child {"imported": <monotonic s>, "exec_s": <s>,
                     "cal_s": [<s>, <s>], "maxrss_kb": <int>}

``imported`` is read on CLOCK_MONOTONIC, which is shared by every process
on the host, so the parent can take set-up time as spawn until
``twodist.cli`` is imported.  ``exec_s`` is the command itself.  ``cal_s``
times a fixed calibration loop just before and just after the command, in
the same process, so the parent can correct both times for the speed the
host gave this process at that moment.
"""

import json
import resource
import sys
import time
from fractions import Fraction

import twodist.cli

IMPORTED = time.monotonic()
MARKER = "perfbench-child "


def calibrate() -> float:
    """Seconds for a fixed piece of Fraction and dict work, like twodist's."""
    start = time.perf_counter()
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        table: dict = {}
        for i in range(25000):
            table[i % 97] = table.get(i % 97, 0) + i * i
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """High-water resident set size of this process's own memory.

    ``ru_maxrss`` also carries the forking parent's peak over ``exec``, so
    read the high-water mark of the current address space instead.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    before = calibrate()
    started = time.monotonic()
    if argv[:1] == ["y2_curve_search"]:
        from twodist import dioph

        xmin, xmax, zmin, zmax = (int(v) for v in argv[1:5])
        print(json.dumps(dioph.y2_curve_search(xmin, xmax, zmin, zmax)))
        code = 0
    else:
        code = twodist.cli.dispatch(argv)[0]
    sys.stdout.flush()
    finished = time.monotonic()
    stats = {
        "imported": IMPORTED,
        "exec_s": finished - started,
        "cal_s": [before, calibrate()],
        "maxrss_kb": peak_rss_kb(),
    }
    print(MARKER + json.dumps(stats), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

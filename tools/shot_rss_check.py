#!/usr/bin/env python3
"""Fails a zero-start shot whose wavefield was resident in full.

    python3 tools/shot_rss_check.py CONTEXT_JSON RESULT_JSON

CONTEXT_JSON and RESULT_JSON hold the last two lines that
`propbench/run.py --trace 0` prints: the run context (with
wavefield_buffer_mib, one padded time buffer of the wavefield) and the
result (with metrics.peak_rss_mib).

A shot starts from +0, and Function::fill(+0) writes only what the
activity boxes and rows say can be nonzero, so a wavefield page is
faulted in only once the front reaches it. The acoustic shot holds five
buffer-sized arrays (three time buffers of u, plus m and damp), so a run
that faults in every page peaks above 5 buffers; one that leaves u's
untouched pages alone stays near 2. Exits 0 when peak_rss_mib < 4 x
wavefield_buffer_mib, 1 when not, and 2 on an input it cannot read.
"""

import json
import sys

BOUND = 4.0  # Buffers.
USAGE = "usage: python3 tools/shot_rss_check.py CONTEXT_JSON RESULT_JSON"


def main():
    if len(sys.argv) != 3:
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    try:
        with open(sys.argv[1]) as f:
            buffer_mib = float(json.load(f)["context"]["wavefield_buffer_mib"])
        with open(sys.argv[2]) as f:
            rss_mib = float(json.load(f)["metrics"]["peak_rss_mib"]["value"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print("shot_rss_check: cannot read inputs: %r" % e, file=sys.stderr)
        sys.exit(2)
    bound = BOUND * buffer_mib
    ok = rss_mib < bound
    print("shot_rss_check: peak_rss_mib %.1f, bound %.1f (%g x %.1f MiB "
          "buffers): %s" % (rss_mib, bound, BOUND, buffer_mib,
                            "ok" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

"""serve-open's load generator: a process of its own, so it keeps the
arrival schedule whatever the server's process does with its CPU time
and its GIL.

Protocol on the standard streams:

1. it writes one byte, ``R``, once it has started;
2. it reads one JSON line, ``{"start": t, "due": [d0, d1, ...]}``, where
   ``t`` is on ``time.monotonic``'s clock (system-wide on Linux) and each
   ``d`` is a due time in seconds after ``t``, in ascending order;
3. at each due time it writes one record ``RECORD`` of the request's
   index and how many seconds late it woke, then exits 0 after the last.

It needs only the standard library, so it starts in milliseconds.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time

RECORD = struct.Struct("<Id")


def main() -> int:
    out = sys.stdout.fileno()
    os.write(out, b"R")
    job = json.loads(sys.stdin.readline())
    start = job["start"]
    for i, offset in enumerate(job["due"]):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        os.write(out, RECORD.pack(i, time.monotonic() - due))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process set-up probe for the explore workloads.

``python3 ratbench/probe.py WORKLOAD SEED SPAWNED [later]`` imports the
program, runs the workload's first operation, checks it, and prints one
JSON line.  SPAWNED is the parent's ``perf_counter()`` taken just
before the spawn; both processes read the same CLOCK_MONOTONIC, so
``setup_s`` runs from the spawn to the first operation's end.  With
``later`` the probe then also times a later call under glibc's default
allocator (``explore_wl.default_heap_call``).
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    workload, seed, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    from common import require_checkout

    require_checkout()
    started = time.perf_counter()
    import repro.explore  # noqa: F401  (timed: the program's import)

    imported = time.perf_counter()
    import explore_wl

    ok, done = explore_wl.first_op(workload, seed)
    record = {
        "setup_s": done - spawned,
        "import_s": imported - started,
        "first_op_s": done - imported,
        "ok": ok,
    }
    if sys.argv[4:] == ["later"]:
        record.update(explore_wl.default_heap_call(workload, seed))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

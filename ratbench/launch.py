"""Run the ``rat`` CLI, optionally with the benchmark's span wrappers.

``python3 ratbench/launch.py [--spans FILE] RAT-ARGS...`` prints one
``ratbench-launch {"import_s": ..., "import_done": ...}`` line, then
hands RAT-ARGS to ``repro.cli.main``.  With ``--spans`` the wrappers of
:mod:`spans` record every call into the service's layers in memory and
write them to FILE when the CLI returns (after a clean drain).
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    started = time.perf_counter()
    import repro.cli

    done = time.perf_counter()
    print("ratbench-launch " + json.dumps(
        {"import_s": done - started, "import_done": done}
    ), flush=True)
    if spans_path is None:
        return repro.cli.main(argv)
    from spans import Recorder

    recorder = Recorder()
    recorder.install_serve()
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

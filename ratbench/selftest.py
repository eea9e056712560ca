"""Self-test: the output checks catch a one-ulp or one-digit corruption.

    python3 ratbench/selftest.py [--seed N]

Runs one real ``explore_grid`` operation and one real ``/v1/predict``
request and checks both, which must pass.  It then corrupts one number
in each, one ulp of the explore value in the first row of a middle
chunk (a chunk seam) and one digit of one response body, and checks
again through the same tally the benchmark uses.  Exits 0 only when
each corrupted operation is counted as failed.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

import numpy as np

from common import require_checkout

require_checkout()

import inputs  # noqa: E402
import repro.explore  # noqa: E402
from phase import Phase  # noqa: E402
from repro.serve import RATApp  # noqa: E402
from repro.serve.protocol import Request  # noqa: E402


def explore_check(seed: int) -> Phase:
    space = inputs.grid_space(seed, 0)
    case = inputs.explore_case(space, None, seed, 0, "fail")
    result = repro.explore.explore(space)
    phase = Phase(serial=True)
    phase.record(0.0, 1.0, len(space), not inputs.check_explore(result, case))
    column = result.prediction.speedup
    chunk = repro.explore.DEFAULT_CHUNK_SIZE
    row = chunk * (len(space) // chunk // 2)
    column[row] = np.nextafter(column[row], np.inf)
    phase.record(1.0, 2.0, len(space), not inputs.check_explore(result, case))
    return phase


def serve_check(seed: int) -> Phase:
    sheet = next(s for s in inputs.worksheets(seed) if s.valid)
    call = inputs.predict_call(sheet)

    async def main():
        app = RATApp()
        await app.startup()
        try:
            return await app.handle(Request(
                method="POST",
                path=call.path,
                headers={
                    "host": "127.0.0.1",
                    "content-type": "application/json",
                    "content-length": str(len(call.body)),
                },
                body=call.body,
            ))
        finally:
            await app.shutdown()

    response = asyncio.run(main())
    body = response.body
    phase = Phase(serial=False)
    phase.record(0.0, 1.0, 1,
                 inputs.check_response(call, response.status, body))
    # Bump the first significant digit of the first predicted value.
    at = body.index(b'"t_input":') + len(b'"t_input":')
    while body[at:at + 1] not in [b"%d" % d for d in range(1, 9)]:
        at += 1
    corrupted = body[:at] + b"%d" % (int(body[at:at + 1]) + 1) + body[at + 1:]
    phase.record(1.0, 2.0, 1,
                 inputs.check_response(call, response.status, corrupted))
    return phase


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    caught = True
    for name, check in (("explore one-ulp", explore_check),
                        ("response one-digit", serve_check)):
        phase = check(seed)
        clean_ok = phase.ops[0][2] > 0
        ok = clean_ok and phase.failed == 1
        caught &= ok
        print(f"{name}: clean operation passed={clean_ok}, "
              f"failed after corruption={phase.failed} of "
              f"{phase.attempted}: {'caught' if ok else 'NOT CAUGHT'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())

"""Picklable fault injectors for the exploration runtime tests.

Everything here is module-level (so it pickles into pool workers) and
deliberately misbehaves: raising, crashing the worker process outright
(``os._exit`` — indistinguishable from a segfault to the parent), or
hanging.  The *-once* variants leave a token file on their first
misbehaviour and work normally afterwards, which is how the tests model
transient faults that retries should absorb.

Two families:

* **task functions** (``double``, ``raise_on_negative``, ...) take a
  plain value — used to exercise :func:`repro.explore.runtime.run_chunks`
  directly.
* **chunk functions** (``crash_once_chunk``, ...) have the
  ``explore(chunk_fn=...)`` signature ``(chunk, mode) -> (elapsed,
  columns)`` and trigger on marker clock frequencies planted in the
  design space, delegating to the real evaluator otherwise.
"""

import multiprocessing
import os
import time

import numpy as np

from repro.explore.executor import _predict_chunk

#: Marker clock frequencies (Hz) the faulty chunk functions trigger on.
CRASH_HZ = 111.5e6
HANG_HZ = 222.5e6
KILL_PARENT_HZ = 333.5e6
FAIL_HZ = 144.5e6

#: How long a "hung" injector sleeps — far beyond any test timeout, so
#: only pool termination can end it.
HANG_S = 300.0

#: How long exit_once_or_nap keeps a task in flight.
NAP_S = 1.0


def _touch(token: str) -> None:
    with open(token, "w", encoding="utf-8") as handle:
        handle.write("tripped\n")


def _has_marker(chunk, marker_hz: float) -> bool:
    return bool(np.any(chunk.clock_hz == marker_hz))


# ---- plain task functions (for run_chunks) --------------------------------


def double(x):
    return 2 * x


def raise_on_negative(x):
    if x < 0:
        raise ValueError("injected task failure")
    return 2 * x


def exit_on_negative(x):
    """Kill the worker process: the parent sees BrokenProcessPool."""
    if x < 0:
        os._exit(13)
    return 2 * x


def exit_once_on_negative(x, token):
    if x < 0 and not os.path.exists(token):
        _touch(token)
        os._exit(13)
    return 2 * x


def exit_once_or_nap(x, token):
    """Crash once on a negative task; nap NAP_S on a zero task.

    The nap keeps a zero task in flight while a negative one's crash
    breaks the pool, so the break involves both.
    """
    if x < 0 and not os.path.exists(token):
        _touch(token)
        os._exit(13)
    if x == 0:
        time.sleep(NAP_S)
    return 2 * x


def sleep_on_negative(x):
    if x < 0:
        time.sleep(HANG_S)
    return 2 * x


def sleep_once_on_negative(x, token):
    if x < 0 and not os.path.exists(token):
        _touch(token)
        time.sleep(HANG_S)
    return 2 * x


def exit_in_worker(x):
    """Crash in any pool worker but succeed in the parent process.

    Forces every pool attempt to break so run_chunks degrades to serial
    — where the same function completes normally.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return 2 * x


# ---- chunk functions (for explore(chunk_fn=...)) --------------------------


def raising_chunk(chunk, mode):
    raise RuntimeError("injected chunk failure")


def failing_marker_chunk(chunk, mode):
    """Raise on every attempt at a FAIL_HZ chunk; evaluate the rest."""
    if _has_marker(chunk, FAIL_HZ):
        raise RuntimeError("injected persistent chunk failure")
    return _predict_chunk(chunk, mode)


def flaky_chunk(chunk, mode, token):
    """Raise until the token file exists, then evaluate normally."""
    if not os.path.exists(token):
        _touch(token)
        raise RuntimeError("injected transient failure")
    return _predict_chunk(chunk, mode)


def crash_once_chunk(chunk, mode, token):
    if _has_marker(chunk, CRASH_HZ) and not os.path.exists(token):
        _touch(token)
        os._exit(13)
    return _predict_chunk(chunk, mode)


def faulty_chunk(chunk, mode, crash_token, hang_token):
    """Crash once on CRASH_HZ chunks and hang once on HANG_HZ chunks."""
    if _has_marker(chunk, CRASH_HZ) and not os.path.exists(crash_token):
        _touch(crash_token)
        os._exit(13)
    if _has_marker(chunk, HANG_HZ) and not os.path.exists(hang_token):
        _touch(hang_token)
        time.sleep(HANG_S)
    return _predict_chunk(chunk, mode)


def kill_parent_chunk(chunk, mode):
    """os._exit the *calling* process on the marker chunk.

    On the serial path the caller is the exploring process itself: this
    simulates the whole run being killed (OOM, Ctrl-C) mid-exploration,
    after earlier chunks were journaled.
    """
    if _has_marker(chunk, KILL_PARENT_HZ):
        os._exit(1)
    return _predict_chunk(chunk, mode)


# ---- map_designs evaluators ----------------------------------------------


def t_rc_eval(rat):
    from repro.core.throughput import predict

    return predict(rat).t_rc


def raise_on_slow_clock_eval(rat):
    if rat.computation.clock_hz < 80e6:
        raise ValueError("injected evaluator failure")
    return t_rc_eval(rat)

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
* **map_designs evaluators** (``t_rc_eval``, ``faulty_eval``, ...) take
  one scalar worksheet; the faulty ones trigger on marker clock
  frequencies planted in the design space and evaluate normally
  otherwise.
"""

import multiprocessing
import os
import time

#: Marker clock frequencies (Hz) faulty_eval triggers on.
CRASH_HZ = 111.5e6
HANG_HZ = 222.5e6

#: How long a "hung" injector sleeps — far beyond any test timeout, so
#: only pool termination can end it.
HANG_S = 300.0

#: How long exit_once_or_nap keeps a task in flight.
NAP_S = 1.0


def _touch(token: str) -> None:
    with open(token, "w", encoding="utf-8") as handle:
        handle.write("tripped\n")


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


# ---- map_designs evaluators ----------------------------------------------


def t_rc_eval(rat):
    from repro.core.throughput import predict

    return predict(rat).t_rc


def raise_on_slow_clock_eval(rat):
    if rat.computation.clock_hz < 80e6:
        raise ValueError("injected evaluator failure")
    return t_rc_eval(rat)


def faulty_eval(rat, crash_token, hang_token):
    """Crash once on a CRASH_HZ design and hang once on a HANG_HZ one."""
    clock_hz = rat.computation.clock_hz
    if clock_hz == CRASH_HZ and not os.path.exists(crash_token):
        _touch(crash_token)
        os._exit(13)
    if clock_hz == HANG_HZ and not os.path.exists(hang_token):
        _touch(hang_token)
        time.sleep(HANG_S)
    return t_rc_eval(rat)

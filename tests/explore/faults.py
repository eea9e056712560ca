"""Picklable fault injectors for the exploration runtime tests.

Everything here is module-level (so it pickles into pool workers) and
deliberately misbehaves: raising, or crashing a pool worker outright
(``os._exit`` — indistinguishable from a segfault to the parent), never
the calling process.  ``exit_once_eval`` leaves a token file on its
crash and evaluates normally afterwards, so a resumed run completes.

Two families:

* **task functions** (``double``, ``raise_on_negative``,
  ``exit_on_negative``) take a plain value — used to exercise
  :func:`repro.explore.runtime.run_chunks` directly.
* **map_designs evaluators** (``t_rc_eval``, ...) take one scalar
  worksheet; the faulty ones trigger on designs planted in the design
  space and evaluate normally otherwise.
"""

import multiprocessing
import os

#: Marker clock frequency (Hz) exit_once_eval crashes on.
CRASH_HZ = 111.5e6


# ---- plain task functions (for run_chunks) --------------------------------


def double(x):
    return 2 * x


def raise_on_negative(x):
    if x < 0:
        raise ValueError("injected task failure")
    return 2 * x


def exit_on_negative(x):
    """Kill the pool worker on a negative task (never the caller)."""
    if x < 0 and multiprocessing.parent_process() is not None:
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


def exit_once_eval(rat, token):
    """Kill the worker on the first evaluation of a CRASH_HZ design.

    Only a pool worker dies: in the calling process (a test runner) the
    design evaluates normally, so a misrouted run fails its assertions
    instead of killing the runner.
    """
    if (
        rat.computation.clock_hz == CRASH_HZ
        and multiprocessing.parent_process() is not None
        and not os.path.exists(token)
    ):
        with open(token, "w", encoding="utf-8") as handle:
            handle.write("tripped\n")
        os._exit(13)
    return t_rc_eval(rat)

"""The supervisor's restart and autoscale policies as pure decisions.

Synthetic samples in, a verdict out: no process, no clock, no sleep.
``test_supervisor.py``, ``test_aggregate.py`` and the chaos suite cover
the same policies end to end.
"""

import math
import os

import pytest

from repro.errors import ParameterError
from repro.serve.supervisor import (
    SCALE_UP,
    AutoscalePolicy,
    RestartPolicy,
    Supervisor,
)

RESTART = RestartPolicy(
    backoff_initial_s=0.1, backoff_max_s=1.0, backoff_factor=2.0,
    budget=3, window_s=10.0,
)

SCALE = AutoscalePolicy(
    min_shards=1, max_shards=3, scale_up_depth=4.0, scale_down_depth=1.0,
    cooldown_s=2.0, smoothing_s=1.0,
)


class TestRestartDecision:
    @pytest.mark.parametrize("earlier, now, kept, benched", [
        ((), 5.0, (5.0,), False),
        ((1.0, 2.0), 5.0, (1.0, 2.0, 5.0), False),
        # The budget+1-th restart in the window benches the shard.
        ((1.0, 2.0, 3.0), 5.0, (1.0, 2.0, 3.0, 5.0), True),
        # A restart exactly window_s old still counts ...
        ((1.0, 2.0, 3.0), 11.0, (1.0, 2.0, 3.0, 11.0), True),
        # ... and drops out once it is older than that.
        ((1.0, 2.0, 3.0), 11.5, (2.0, 3.0, 11.5), False),
        ((1.0, 2.0, 3.0), 40.0, (40.0,), False),
    ])
    def test_sliding_window_budget(self, earlier, now, kept, benched):
        times, backoff = RESTART.decide(earlier, now, 0.0)
        assert times == kept
        assert (backoff is None) is benched

    def test_backoff_doubles_and_stops_at_its_cap(self):
        backoff, seen = 0.0, []
        for crash in range(6):
            _, backoff = RESTART.decide((), float(crash), backoff)
            seen.append(backoff)
        assert seen == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


class TestAutoscaleSmoothing:
    def test_first_sample_seeds_the_ewma(self):
        assert SCALE.smooth(0.0, None, 7.0, 123.0) == 7.0

    def test_later_sample_weighs_elapsed_time(self):
        assert SCALE.smooth(2.0, 10.0, 6.0, 10.5) == (
            2.0 + (1.0 - math.exp(-0.5)) * (6.0 - 2.0)
        )

    @pytest.mark.parametrize("dt", [0.05, 0.5, 3.0])
    def test_two_half_ticks_match_one_tick(self, dt):
        one = SCALE.smooth(2.0, 0.0, 6.0, dt)
        half = SCALE.smooth(2.0, 0.0, 6.0, dt / 2)
        assert SCALE.smooth(half, dt / 2, 6.0, dt) == pytest.approx(
            one, rel=1e-12
        )

    def test_no_elapsed_time_no_weight(self):
        assert SCALE.smooth(2.0, 10.0, 6.0, 10.0) == 2.0
        assert SCALE.smooth(2.0, 10.0, 6.0, 9.0) == 2.0


# (shard_id, queue_depth, inflight) per ready shard.
IDLE3 = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
BUSY1 = [(0, 6, 2)]


class TestAutoscaleDecision:
    @pytest.mark.parametrize(
        "ewma, since_scale_s, ready, slots, starting, verdict",
        [
            # Nothing happens during the cooldown, however deep or idle.
            (9.0, 1.9, BUSY1, 1, False, None),
            (0.0, 1.9, IDLE3, 3, False, None),
            # Scale-up: above the threshold, under the ceiling, no shard
            # booting.
            (4.5, 2.0, BUSY1, 1, False, SCALE_UP),
            (4.5, math.inf, BUSY1, 2, False, SCALE_UP),
            (4.0, 5.0, BUSY1, 1, False, None),
            (4.5, 5.0, BUSY1, 1, True, None),
            # The ceiling counts benched slots: one ready shard and two
            # benched ones leave no room.
            (4.5, 5.0, BUSY1, 3, False, None),
            # Between the thresholds (both inclusive) nothing happens.
            (4.0, 5.0, IDLE3, 3, False, None),
            (2.5, 5.0, IDLE3, 3, False, None),
            (1.0, 5.0, IDLE3, 3, False, None),
            # Scale-down retires the newest idle ready shard ...
            (0.5, 5.0, IDLE3, 3, False, 2),
            (0.5, 5.0, [(0, 0, 0), (1, 0, 0), (2, 1, 0)], 3, False, 1),
            (0.5, 5.0, [(0, 0, 0), (1, 0, 2), (2, 3, 0)], 3, False, 0),
            # ... none if every ready shard has work ...
            (0.5, 5.0, [(0, 1, 0), (1, 0, 2)], 2, False, None),
            # ... and never below min_shards ready.
            (0.5, 5.0, [(0, 0, 0)], 1, False, None),
            (0.5, 5.0, [(0, 0, 0), (1, 0, 0)], 2, False, 1),
        ],
    )
    def test_verdicts(
        self, ewma, since_scale_s, ready, slots, starting, verdict
    ):
        assert SCALE.decide(ewma, since_scale_s, ready, slots, starting) == (
            verdict
        )

    @pytest.mark.parametrize("change", [
        {"scale_up_depth": 1.0, "scale_down_depth": 2.0},
        {"scale_up_depth": 1.0, "scale_down_depth": 1.0},
        {"scale_down_depth": -0.5},
        {"cooldown_s": -1.0},
        {"smoothing_s": 0.0},
    ])
    def test_bad_shapes_rejected(self, change):
        fields = dict(
            min_shards=1, max_shards=3, scale_up_depth=4.0,
            scale_down_depth=1.0, cooldown_s=2.0, smoothing_s=1.0,
        )
        with pytest.raises(ParameterError):
            AutoscalePolicy(**{**fields, **change})

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_supervisor_rejects_before_opening_anything(self):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with pytest.raises(ParameterError):
                Supervisor(shards=1, scale_up_depth=1.0, scale_down_depth=2.0)
        assert len(os.listdir("/proc/self/fd")) == before

"""Throughput-equation tests: paper anchors, invariants, properties."""

import math

import pytest
from hypothesis import given

from repro.core.batch import BatchInput, batch_predict
from repro.core.buffering import BufferingMode
from repro.core.params import (
    CommunicationParams,
    ComputationParams,
    DatasetParams,
    RATInput,
    SoftwareParams,
)
from repro.core.throughput import (
    communication_time,
    computation_time,
    input_transfer_time,
    output_transfer_time,
    predict,
    rc_execution_time,
    speedup,
    utilization_comm,
    utilization_comp,
)
from repro.errors import ParameterError
from tests.conftest import rat_inputs

SB = BufferingMode.SINGLE
DB = BufferingMode.DOUBLE


def vector_predict(rat, mode):
    """The batch kernel's prediction for one worksheet, as a scalar row."""
    return batch_predict(BatchInput.from_inputs([rat]), mode).row(0, rat)


#: Both evaluators of Equations (1)-(11): the scalar reference and the
#: vector kernel.  Structural invariants must hold for each.
EVALUATORS = (predict, vector_predict)


class TestPaperAnchors:
    """The paper's Tables 3, 6, 9 predicted columns, from Equations 1-11."""

    def test_pdf1d_communication(self, pdf1d_rat):
        # 512*4 / (0.37 * 1e9) + 1*4 / (0.16 * 1e9) = 5.56E-6 s
        assert communication_time(pdf1d_rat) == pytest.approx(5.56e-6, rel=0.005)

    def test_pdf1d_computation_150mhz(self, pdf1d_rat):
        # 512*768 / (150 MHz * 20) = 1.31E-4 s — the paper works this
        # example in full: 393216 ops / 3E+9 ops/sec.
        assert computation_time(pdf1d_rat) == pytest.approx(1.31e-4, rel=0.005)

    @pytest.mark.parametrize(
        "clock_mhz,t_comp,t_rc,spd",
        [
            (75, 2.62e-4, 1.07e-1, 5.4),
            (100, 1.97e-4, 8.09e-2, 7.2),
            (150, 1.31e-4, 5.46e-2, 10.6),
        ],
    )
    def test_pdf1d_full_sweep(self, pdf1d_rat, clock_mhz, t_comp, t_rc, spd):
        rat = pdf1d_rat.with_clock_hz(clock_mhz * 1e6)
        p = predict(rat, SB)
        assert p.t_comp == pytest.approx(t_comp, rel=0.01)
        assert p.t_rc == pytest.approx(t_rc, rel=0.01)
        assert p.speedup == pytest.approx(spd, rel=0.01)

    def test_pdf2d_communication(self, pdf2d_rat):
        # 1024*4/0.37e9 + 65536*4/0.16e9 = 1.65E-3 s (read side dominates)
        assert communication_time(pdf2d_rat) == pytest.approx(1.65e-3, rel=0.005)

    @pytest.mark.parametrize(
        "clock_mhz,t_comp,t_rc,spd",
        [
            (75, 1.12e-1, 4.54e1, 3.5),
            (100, 8.39e-2, 3.42e1, 4.6),
            (150, 5.59e-2, 2.30e1, 6.9),
        ],
    )
    def test_pdf2d_full_sweep(self, pdf2d_rat, clock_mhz, t_comp, t_rc, spd):
        p = predict(pdf2d_rat.with_clock_hz(clock_mhz * 1e6), SB)
        assert p.t_comp == pytest.approx(t_comp, rel=0.01)
        assert p.t_rc == pytest.approx(t_rc, rel=0.01)
        assert p.speedup == pytest.approx(spd, rel=0.015)

    def test_md_communication(self, md_rat):
        # 16384*36 bytes each way at alpha 0.9 over 500 MB/s = 2.62E-3 s
        assert communication_time(md_rat) == pytest.approx(2.62e-3, rel=0.005)

    @pytest.mark.parametrize(
        "clock_mhz,t_comp,t_rc,spd",
        [
            (75, 7.17e-1, 7.19e-1, 8.0),
            (100, 5.37e-1, 5.40e-1, 10.7),
            (150, 3.58e-1, 3.61e-1, 16.0),
        ],
    )
    def test_md_full_sweep(self, md_rat, clock_mhz, t_comp, t_rc, spd):
        p = predict(md_rat.with_clock_hz(clock_mhz * 1e6), SB)
        assert p.t_comp == pytest.approx(t_comp, rel=0.01)
        assert p.t_rc == pytest.approx(t_rc, rel=0.01)
        assert p.speedup == pytest.approx(spd, rel=0.01)


class TestOperationScope:
    """The paper's Booth-multiplier example: operation granularity cancels.

    "an addition followed by a 32-bit [Booth] multiplication [16 cycles]"
    counts as 2 ops at 2/17 ops/cycle or 17 ops at 1 op/cycle — both give
    17 cycles."""

    def _rat(self, ops_per_element: float, throughput_proc: float) -> RATInput:
        return RATInput(
            dataset=DatasetParams(elements_in=1, elements_out=0,
                                  bytes_per_element=4),
            communication=CommunicationParams(
                ideal_bandwidth=1e9, alpha_write=1.0, alpha_read=1.0
            ),
            computation=ComputationParams(
                ops_per_element=ops_per_element,
                throughput_proc=throughput_proc,
                clock_hz=1.0,  # 1 Hz: computation time in seconds == cycles
            ),
            software=SoftwareParams(t_soft=1.0),
        )

    def test_coarse_counting(self):
        # 2 operations at 2/17 ops/cycle -> 17 cycles.
        assert computation_time(self._rat(2, 2 / 17)) == pytest.approx(17.0)

    def test_fine_counting(self):
        # 17 operations at 1 op/cycle -> 17 cycles.
        assert computation_time(self._rat(17, 1.0)) == pytest.approx(17.0)

    @given(rat_inputs())
    def test_scope_invariance_property(self, rat):
        """Scaling ops/element and throughput_proc together is a no-op."""
        factor = 8.0
        scaled = RATInput(
            dataset=rat.dataset,
            communication=rat.communication,
            computation=ComputationParams(
                ops_per_element=rat.computation.ops_per_element * factor,
                throughput_proc=rat.computation.throughput_proc * factor,
                clock_hz=rat.computation.clock_hz,
            ),
            software=rat.software,
        )
        assert computation_time(scaled) == pytest.approx(
            computation_time(rat), rel=1e-9
        )


class TestTransferDirections:
    def test_input_uses_alpha_write(self, simple_rat):
        assert input_transfer_time(simple_rat) == pytest.approx(
            1000 * 4 / (0.5 * 1e8)
        )

    def test_output_uses_alpha_read(self, simple_rat):
        assert output_transfer_time(simple_rat) == pytest.approx(
            500 * 4 / (0.25 * 1e8)
        )

    def test_zero_output_elements(self, simple_rat):
        import dataclasses

        rat = dataclasses.replace(
            simple_rat,
            dataset=DatasetParams(elements_in=1000, elements_out=0,
                                  bytes_per_element=4),
        )
        assert output_transfer_time(rat) == 0.0
        assert communication_time(rat) == input_transfer_time(rat)


class TestBufferingModes:
    def test_simple_rat_values(self, simple_rat):
        assert rc_execution_time(simple_rat, SB) == pytest.approx(2.6e-3)
        assert rc_execution_time(simple_rat, DB) == pytest.approx(1.6e-3)

    def test_speedup_inverse(self, simple_rat):
        assert speedup(simple_rat, SB) == pytest.approx(1.0 / 2.6e-3)

    @given(rat_inputs())
    def test_db_bounds_sb(self, rat):
        """max(a,b) <= a+b <= 2*max(a,b): DB is 1x-2x faster than SB."""
        for evaluate in EVALUATORS:
            sb = evaluate(rat, SB).t_rc
            db = evaluate(rat, DB).t_rc
            assert db <= sb * (1 + 1e-12)
            assert sb <= 2 * db * (1 + 1e-12)

    @given(rat_inputs())
    def test_utilizations_sum_sb(self, rat):
        p = predict(rat, SB)
        assert p.util_comm + p.util_comp == pytest.approx(1.0)

    @given(rat_inputs())
    def test_utilizations_db_dominant_is_one(self, rat):
        for evaluate in EVALUATORS:
            p = evaluate(rat, DB)
            assert max(p.util_comm, p.util_comp) == pytest.approx(1.0)
            assert min(p.util_comm, p.util_comp) <= 1.0 + 1e-12

    @given(rat_inputs())
    def test_speedup_equation7(self, rat):
        for mode in (SB, DB):
            p = predict(rat, mode)
            assert p.speedup == pytest.approx(
                rat.software.t_soft / p.t_rc, rel=1e-12
            )

    @given(rat_inputs())
    def test_iterations_scale_linearly(self, rat):
        import dataclasses

        doubled = dataclasses.replace(
            rat,
            software=SoftwareParams(
                t_soft=rat.software.t_soft,
                n_iterations=rat.software.n_iterations * 2,
            ),
        )
        assert rc_execution_time(doubled, SB) == pytest.approx(
            2 * rc_execution_time(rat, SB), rel=1e-12
        )


class TestPredictionObject:
    def test_bound_labels(self, simple_rat):
        p = predict(simple_rat, SB)
        # t_comm 1.6e-4 > t_comp 1.0e-4
        assert p.bound == "communication"
        assert p.t_iteration == pytest.approx(2.6e-4)

    def test_db_iteration_is_max(self, simple_rat):
        p = predict(simple_rat, DB)
        assert p.t_iteration == pytest.approx(1.6e-4)

    def test_as_dict_keys(self, simple_rat):
        d = predict(simple_rat).as_dict()
        assert set(d) == {
            "clock_mhz", "t_input", "t_output", "t_comm", "t_comp",
            "t_rc", "speedup", "util_comp", "util_comm",
        }

    def test_clock_mhz(self, pdf1d_rat):
        assert predict(pdf1d_rat).clock_mhz == 150


class TestValidation:
    def test_unknown_mode_rejected(self, simple_rat):
        with pytest.raises(ParameterError):
            rc_execution_time(simple_rat, "triple")  # type: ignore[arg-type]

    def test_util_negative_times(self):
        with pytest.raises(ParameterError):
            utilization_comp(-1.0, 1.0)

    def test_util_both_zero(self):
        with pytest.raises(ParameterError):
            utilization_comm(0.0, 0.0)

    def test_util_values(self):
        assert utilization_comp(1.0, 3.0, SB) == pytest.approx(0.75)
        assert utilization_comm(1.0, 3.0, SB) == pytest.approx(0.25)
        assert utilization_comp(1.0, 3.0, DB) == pytest.approx(1.0)
        assert utilization_comm(1.0, 3.0, DB) == pytest.approx(1.0 / 3.0)

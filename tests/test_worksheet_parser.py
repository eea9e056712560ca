"""One worksheet parser: every entry point stages and reports alike.

``repro.core.params`` defines the Table-1 field table, the staging
function and the SI round trip once.  The scalar constructor, the batch
engine, the service's three routes and the CLI all read a worksheet
through them, so a bad field gets one ``ParameterError`` text
everywhere, and a good one the same bits.
"""

import asyncio
import dataclasses
import json

import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.core import batch as batch_module
from repro.core.batch import BatchInput
from repro.core.buffering import BufferingMode
from repro.core.params import WORKSHEET_FIELDS, RATInput, worksheet_row
from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.serve.app import RATApp
from repro.serve.protocol import Request

from tests.conftest import RESULT_COLUMNS, rat_inputs

WORKSHEET = {
    "name": "1-D PDF",
    "elements_in": 512,
    "elements_out": 1,
    "bytes_per_element": 4,
    "throughput_ideal_mbps": 1000.0,
    "alpha_write": 0.37,
    "alpha_read": 0.16,
    "ops_per_element": 768,
    "throughput_proc": 20.0,
    "clock_mhz": 150.0,
    "t_soft": 0.578,
    "n_iterations": 400,
}

_MISSING = object()


def _faulty(key, value):
    worksheet = dict(WORKSHEET)
    if value is _MISSING:
        del worksheet[key]
    else:
        worksheet[key] = value
    return worksheet


def _expected(key, value):
    if value is _MISSING:
        return f"missing worksheet field {key!r}"
    return f"non-numeric worksheet field {key!r}: {value!r}"


def _served_errors(worksheet):
    """The error text of /v1/predict, /v1/batch and /v1/explore."""
    def post(path, payload):
        body = json.dumps(payload).encode()
        return Request("POST", path, {"content-length": str(len(body))}, body)

    async def body():
        app = RATApp()
        await app.startup()
        try:
            responses = [
                await app.handle(post("/v1/predict", worksheet)),
                await app.handle(post(
                    "/v1/batch", {"worksheets": [WORKSHEET, worksheet]}
                )),
                await app.handle(post("/v1/explore", {
                    "worksheet": worksheet, "axes": {"clock_mhz": [100.0]},
                })),
            ]
        finally:
            await app.shutdown()
        return [(r.status, json.loads(r.body)) for r in responses]

    (p_status, p_body), (b_status, b_body), (e_status, e_body) = (
        asyncio.run(body())
    )
    assert (p_status, b_status, e_status) == (400, 200, 400)
    assert b_body["evaluated"] == 1
    assert b_body["results"][1]["ok"] is False
    return [p_body["error"], b_body["results"][1]["error"], e_body["error"]]


_FAULTS = [
    (key, value)
    for key, _, _, _ in WORKSHEET_FIELDS
    for value in (_MISSING, "abc", None)
]


@pytest.mark.parametrize(
    "key,value", _FAULTS,
    ids=[f"{k}-{'missing' if v is _MISSING else v}" for k, v in _FAULTS],
)
class TestOneErrorText:
    def test_scalar_and_served(self, key, value):
        worksheet = _faulty(key, value)
        expected = _expected(key, value)
        with pytest.raises(ParameterError) as info:
            RATInput.from_dict(worksheet)
        assert str(info.value) == expected
        assert _served_errors(worksheet) == [expected] * 3

    @pytest.mark.parametrize("command", ["worksheet", "lint"])
    def test_cli(self, key, value, command, tmp_path, capsys):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(_faulty(key, value)))
        assert main([command, "--json", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {_expected(key, value)}\n"


class TestFaultOrder:
    def test_non_numeric_named_ahead_of_earlier_range_fault(self):
        # Every field is staged before any is validated, so the
        # non-numeric clock is named ahead of the bad elements_in.
        worksheet = {**WORKSHEET, "elements_in": 0, "clock_mhz": "abc"}
        expected = "non-numeric worksheet field 'clock_mhz': 'abc'"
        with pytest.raises(ParameterError, match=expected):
            RATInput.from_dict(worksheet)
        assert _served_errors(worksheet) == [expected] * 3

    def test_non_mapping(self):
        with pytest.raises(ParameterError, match="JSON object"):
            RATInput.from_dict([1, 2, 3])


class TestSIRoundTrip:
    @given(rat_inputs())
    @settings(max_examples=50, deadline=None)
    def test_staging_matches_the_scalar_constructor(self, rat):
        data = rat.to_dict()
        staged = worksheet_row(data)
        assert staged == RATInput.from_dict(data).si_values()
        # Only the MB/s and MHz fields go through a display-unit round
        # trip, which may move the last bit.
        for (_, _, scale, _), got, want in zip(
            WORKSHEET_FIELDS, staged, rat.si_values()
        ):
            if scale == 1.0:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-15)

    @given(rat_inputs())
    @settings(max_examples=50, deadline=None)
    def test_from_si_predicts_bitwise(self, rat):
        rebuilt = RATInput.from_si(rat.si_values(), rat.name)
        assert rebuilt == rat
        for mode in BufferingMode:
            got, want = predict(rebuilt, mode), predict(rat, mode)
            for name in RESULT_COLUMNS:
                assert getattr(got, name) == getattr(want, name)

    @given(rat_inputs(), rat_inputs())
    @settings(max_examples=30, deadline=None)
    def test_from_inputs_holds_the_si_rows(self, first, second):
        batch = BatchInput.from_inputs([first, second])
        for i, rat in enumerate((first, second)):
            row = tuple(
                float(getattr(batch, column)[i])
                for column in batch_module._COLUMNS
            )
            assert row == rat.si_values()

    def test_whole_counts_become_ints(self, pdf1d_rat):
        values = list(pdf1d_rat.si_values())
        values[1] = 0.0  # elements_out
        assert type(RATInput.from_si(values).dataset.elements_out) is int
        values[0] = 512.5
        assert RATInput.from_si(values).dataset.elements_in == 512.5
        batch = BatchInput.from_base(pdf1d_rat, 1, {"elements_out": [0.0]})
        assert type(batch.row(0).dataset.elements_out) is int

    def test_large_count_rounds_like_the_service(self):
        worksheet = {**WORKSHEET, "elements_in": 2**53 + 1}
        assert RATInput.from_dict(worksheet).dataset.elements_in == 2**53
        assert worksheet_row(worksheet)[0] == float(2**53)


class TestBatchColumns:
    def test_columns_follow_the_table_and_the_batch_fields(self):
        fields = [f.name for f in dataclasses.fields(BatchInput)]
        assert batch_module._COLUMNS == tuple(fields[:11])
        assert batch_module._COLUMNS == tuple(
            column for _, column, _, _ in WORKSHEET_FIELDS
        )

    def test_staging_follows_the_table(self):
        # worksheet_row is written out field by field; the table's key
        # order, count flags and scales must say what it does.
        for j, (key, _, scale, count) in enumerate(WORKSHEET_FIELDS):
            staged = worksheet_row({**WORKSHEET, key: 7.5})
            assert staged[j] == (7.0 if count else 7.5) * scale, key

    def test_from_inputs_columns_are_contiguous(self, pdf1d_rat, md_rat):
        batch = BatchInput.from_inputs([pdf1d_rat, md_rat, pdf1d_rat])
        for column in batch_module._COLUMNS:
            assert getattr(batch, column).flags.c_contiguous, column

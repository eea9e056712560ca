"""Seeded workload inputs and their scalar-reference expectations.

The program only ever receives what these functions generate from the
run's seed: design spaces and worksheets drawn around the registered
case studies.  Every expectation comes from the scalar reference path:
``RATInput`` validation for diagnostics and ``predict()`` for values.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

import numpy as np

from common import same_bits

from repro.apps.registry import get_case_study
from repro.core import BufferingMode, RATInput, predict
from repro.errors import ParameterError

STUDIES = ("pdf1d", "pdf2d", "md", "fir", "matmul", "stringmatch")
FIELDS = (
    "t_input", "t_output", "t_comm", "t_comp",
    "t_rc", "speedup", "util_comp", "util_comm",
)
#: Points per grid axis: 100 x 100 x 100 = 1e6 design points.
GRID_AXIS = 100
QUARANTINE_POINTS = 250_000
QUARANTINE_INVALID = 0.02
#: Random rows compared against scalar ``predict()`` after every explore
#: call, besides the space's ends and every chunk seam.
SAMPLED_ROWS = 256
WORKSHEETS = 2048
WORKSHEET_INVALID = 0.01
BATCH_ROWS = 64
#: serve_http: one ``/v1/batch`` request in every block of this many.
MIX_BLOCK = 8
MAX_BATCH = 64  # the service's default --max-batch

_SEP = (",", ":")


def _dumps(payload: object) -> bytes:
    return json.dumps(payload, separators=_SEP).encode("utf-8")


# ---- exploration -----------------------------------------------------------


@dataclass
class ExploreCase:
    """One design space plus what a correct exploration of it returns."""

    space: object  # repro.explore.DesignSpace
    on_error: str
    rows: np.ndarray  # sampled row indices
    expected: np.ndarray  # (len(FIELDS), len(rows)) float64, NaN if invalid
    row_valid: np.ndarray  # bool per sampled row
    bad_mask: np.ndarray  # bool per design point
    failures: list[tuple[int, str]]  # (index, scalar ParameterError text)


def _base(rng: np.random.Generator) -> RATInput:
    return get_case_study(STUDIES[int(rng.integers(len(STUDIES)))]).rat


def grid_space(seed: int, k: int):
    """A 1e6-point clock x alpha x throughput_proc grid, all valid."""
    from repro.explore import DesignSpace

    rng = np.random.default_rng([seed, k])
    base = _base(rng)
    clock = base.computation.clock_mhz
    thr = base.computation.throughput_proc
    return DesignSpace.grid(
        base,
        clock_mhz=np.linspace(
            clock * rng.uniform(0.3, 0.6), clock * rng.uniform(1.5, 3.0),
            GRID_AXIS,
        ),
        alpha=np.linspace(
            rng.uniform(0.02, 0.1), rng.uniform(0.8, 1.0), GRID_AXIS
        ),
        throughput_proc=np.linspace(
            thr * rng.uniform(0.2, 0.5), thr * rng.uniform(1.5, 4.0),
            GRID_AXIS,
        ),
    )


def quarantine_space(seed: int, k: int):
    """A random space with ~2% invalid points, one bad field per point.

    Returns the space and the boolean mask of the points it made
    invalid (alpha <= 0, alpha > 1, clock <= 0 or throughput_proc <= 0).
    """
    from repro.explore import DesignSpace

    rng = np.random.default_rng([seed, 1000 + k])
    base = _base(rng)
    n = QUARANTINE_POINTS
    clock = base.computation.clock_mhz * rng.uniform(0.3, 3.0, n)
    alpha = rng.uniform(0.02, 1.0, n)
    thr = base.computation.throughput_proc * rng.uniform(0.2, 4.0, n)
    bad = rng.random(n) < QUARANTINE_INVALID
    kind = np.where(bad, rng.integers(0, 4, n), -1)
    scale = rng.uniform(0.01, 0.5, n)
    alpha[kind == 0] = -scale[kind == 0]
    alpha[kind == 1] = 1.0 + scale[kind == 1]
    clock[kind == 2] = -clock[kind == 2]
    thr[kind == 3] = 0.0
    space = DesignSpace(
        base=base,
        axes=("clock_mhz", "alpha", "throughput_proc"),
        values=np.column_stack([clock, alpha, thr]),
    )
    return space, bad


def explore_case(
    space, bad: np.ndarray | None, seed: int, k: int, on_error: str
) -> ExploreCase:
    """Scalar-reference expectations for exploring space ``k`` of a run.

    The sampled rows are both ends of the space, both sides of every
    chunk seam (where ``explore()`` joins its chunk results), and
    ``SAMPLED_ROWS`` random rows drawn afresh for each space.
    """
    from repro.explore import DEFAULT_CHUNK_SIZE

    n = len(space)
    bad = np.zeros(n, dtype=bool) if bad is None else bad
    rng = np.random.default_rng([seed, 7, k])
    seams = np.arange(DEFAULT_CHUNK_SIZE, n, DEFAULT_CHUNK_SIZE)
    edges = np.concatenate([[0, n - 1], seams - 1, seams])
    rows = np.unique(
        np.concatenate([edges, rng.choice(n, SAMPLED_ROWS, replace=False)])
    ).astype(np.intp)
    expected = np.full((len(FIELDS), len(rows)), np.nan)
    for j, i in enumerate(rows):
        if bad[i]:
            continue
        reference = predict(space.design(int(i)), BufferingMode.SINGLE)
        expected[:, j] = [getattr(reference, name) for name in FIELDS]
    failures = []
    for i in np.flatnonzero(bad):
        try:
            space.design(int(i))
        except ParameterError as exc:
            failures.append((int(i), str(exc)))
        else:
            raise AssertionError(f"generated point {i} is unexpectedly valid")
    return ExploreCase(
        space, on_error, rows, expected, ~bad[rows], bad, failures
    )


def check_explore(result, case: ExploreCase) -> list[str]:
    """Problems with one exploration result; empty means correct."""
    prediction = result.prediction
    if len(prediction) != len(case.space):
        return [f"{len(prediction)} rows, expected {len(case.space)}"]
    problems = []
    valid = case.row_valid
    for j, name in enumerate(FIELDS):
        got = getattr(prediction, name)[case.rows]
        want = case.expected[j]
        if not np.array_equal(
            got[valid].view(np.uint64), want[valid].view(np.uint64)
        ):
            problems.append(f"{name} differs from scalar predict()")
        if not np.isnan(got[~valid]).all():
            problems.append(f"{name} not NaN on a quarantined row")
    if not np.array_equal(np.isnan(prediction.speedup), case.bad_mask):
        problems.append("NaN rows differ from the invalid points")
    failures = [(f.index, f.reason) for f in result.failures]
    if failures != case.failures:
        problems.append(
            f"{len(failures)} quarantined points, expected "
            f"{len(case.failures)} with scalar ParameterError text"
        )
    if result.chunk_failures:
        problems.append(f"{len(result.chunk_failures)} chunk failures")
    return problems


# ---- serving ---------------------------------------------------------------

#: One out-of-range field per invalid worksheet.
_INVALID_EDITS = (
    ("alpha_write", 0.0),
    ("alpha_read", 1.5),
    ("clock_mhz", -100.0),
    ("throughput_proc", 0.0),
    ("t_soft", -1.0),
    ("n_iterations", 0),
    ("elements_in", 0),
    ("bytes_per_element", -4),
)


@dataclass
class Sheet:
    """One generated worksheet and its scalar-reference outcome."""

    worksheet: dict
    valid: bool
    record: dict | None  # {"single": {...}, "double": {...}}
    error: str | None  # RATInput.from_dict ParameterError text


def worksheets(seed: int, count: int = WORKSHEETS) -> list[Sheet]:
    """``count`` worksheets jittered around the case studies, ~1% invalid."""
    rng = random.Random(seed * 7919 + 17)
    bases = {name: get_case_study(name).rat.to_dict() for name in STUDIES}
    sheets = []
    for i in range(count):
        study = rng.choice(STUDIES)
        ws = dict(bases[study])
        ws["name"] = f"{study}-{seed}-{i}"
        ws["elements_in"] = max(
            1, int(ws["elements_in"] * rng.uniform(0.5, 2.0))
        )
        ws["clock_mhz"] = ws["clock_mhz"] * rng.uniform(0.5, 2.0)
        ws["alpha_write"] = rng.uniform(0.05, 0.95)
        ws["alpha_read"] = rng.uniform(0.05, 0.95)
        ws["throughput_proc"] = ws["throughput_proc"] * rng.uniform(0.5, 2.0)
        ws["t_soft"] = ws["t_soft"] * rng.uniform(0.5, 2.0)
        if rng.random() < WORKSHEET_INVALID:
            key, value = rng.choice(_INVALID_EDITS)
            ws[key] = value
        try:
            rat = RATInput.from_dict(ws)
        except ParameterError as exc:
            sheets.append(Sheet(ws, False, None, str(exc)))
            continue
        record = {}
        for mode in (BufferingMode.SINGLE, BufferingMode.DOUBLE):
            reference = predict(rat, mode)
            record[mode.value] = {
                name: getattr(reference, name) for name in FIELDS
            }
        sheets.append(Sheet(ws, True, record, None))
    return sheets


@dataclass
class Call:
    """One request of a serve workload and its expected response."""

    path: str
    body: bytes
    points: int  # worksheets carried
    status: int
    exact: bytes | None  # the whole expected body, or
    prefix: bytes | None  # /v1/predict: all but the batch_size tail
    semantic: object  # expected JSON value for the slow comparison


_TAIL = re.compile(rb'"batch_size":(\d+)\}\Z')


def predict_call(sheet: Sheet) -> Call:
    body = _dumps(sheet.worksheet)
    if not sheet.valid:
        expected = {"error": sheet.error, "status": 400}
        return Call("/v1/predict", body, 1, 400, _dumps(expected), None,
                    expected)
    head = {"name": sheet.worksheet["name"], "predictions": sheet.record}
    prefix = _dumps(head)[:-1] + b',"batch_size":'
    return Call("/v1/predict", body, 1, 200, None, prefix, head)


def batch_call(sheets: list[Sheet]) -> Call:
    body = _dumps({"worksheets": [s.worksheet for s in sheets]})
    results = [
        {"ok": True, "predictions": s.record} if s.valid
        else {"ok": False, "error": s.error}
        for s in sheets
    ]
    evaluated = sum(s.valid for s in sheets)
    expected = {
        "rows": len(sheets),
        "evaluated": evaluated,
        "failed": len(sheets) - evaluated,
        "results": results,
    }
    return Call("/v1/batch", body, len(sheets), 200, _dumps(expected), None,
                expected)


def http_mix(seed: int, sheets: list[Sheet], blocks: int) -> list[Call]:
    """serve_http's request sequence: per block of 8, 7 predicts + 1 batch."""
    rng = random.Random(seed * 31 + 5)
    calls = []
    cursor = 0
    for _ in range(blocks):
        slot = rng.randrange(MIX_BLOCK)
        for position in range(MIX_BLOCK):
            if position == slot:
                chosen = rng.sample(range(len(sheets)), BATCH_ROWS)
                calls.append(batch_call([sheets[i] for i in chosen]))
            else:
                calls.append(predict_call(sheets[cursor % len(sheets)]))
                cursor += 1
    return calls


def _same(got: object, want: object) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and same_bits(got, want)
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_same(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


def check_response(call: Call, status: int, body: bytes) -> bool:
    """Whether one response is exactly what the scalar reference implies.

    The common case is a byte comparison; anything else is decoded and
    compared value by value (floats bit for bit), so only a wrong value
    or status fails, not a change of JSON layout.
    """
    if status != call.status:
        return False
    if call.exact is not None and body == call.exact:
        return True
    if call.prefix is not None and body.startswith(call.prefix):
        tail = _TAIL.match(body, len(call.prefix) - len(b'"batch_size":'))
        if tail and 1 <= int(tail.group(1)) <= MAX_BATCH:
            return True
    try:
        got = json.loads(body)
    except ValueError:
        return False
    if call.prefix is not None:
        if not isinstance(got, dict):
            return False
        size = got.pop("batch_size", None)
        if type(size) is not int or not 1 <= size <= MAX_BATCH:
            return False
    return _same(got, call.semantic)

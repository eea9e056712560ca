"""Application-layer tests: routing, endpoints, error mapping."""

import asyncio
import json
import tracemalloc

import pytest

from repro.core.batch import BatchInput
from repro.core.buffering import BufferingMode
from repro.core.params import RATInput
from repro.core.throughput import predict
from repro.obs import get_metrics
from repro.serve import app as app_module
from repro.serve.app import RATApp
from repro.serve.protocol import Request

from .test_batcher import WORKSHEET


def post(path, payload):
    body = json.dumps(payload).encode()
    return Request("POST", path, {"content-length": str(len(body))}, body)


def get(path):
    return Request("GET", path, {})


def run_app(*requests, **app_kwargs):
    """Boot an app, serve the requests sequentially, drain, return
    (status, decoded-body) pairs."""
    async def body():
        app = RATApp(**app_kwargs)
        await app.startup()
        try:
            responses = []
            for request in requests:
                response = await app.handle(request)
                payload = (
                    json.loads(response.body)
                    if response.content_type.startswith("application/json")
                    else response.body.decode()
                )
                responses.append((response.status, payload, response))
            return responses
        finally:
            await app.shutdown()

    return asyncio.run(body())


class TestRouting:
    def test_unknown_route_404(self):
        [(status, payload, _)] = run_app(get("/v2/nothing"))
        assert status == 404
        assert "no route" in payload["error"]

    def test_wrong_method_405(self):
        [(status, _, _)] = run_app(get("/v1/predict"))
        assert status == 405

    def test_healthz_requires_get(self):
        [(status, _, _)] = run_app(post("/healthz", {}))
        assert status == 405

    def test_malformed_json_400(self):
        request = Request(
            "POST", "/v1/predict", {"content-length": "5"}, b"{nope"
        )
        [(status, payload, _)] = run_app(request)
        assert status == 400
        assert "malformed JSON" in payload["error"]


class TestHealthz:
    def test_ok(self):
        [(status, payload, _)] = run_app(get("/healthz"))
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["queue_depth"] == 0

    def test_draining_visible_and_other_routes_503(self):
        async def body():
            app = RATApp()
            await app.startup()
            app.draining = True
            health = await app.handle(get("/healthz"))
            predict_response = await app.handle(
                post("/v1/predict", WORKSHEET)
            )
            await app.shutdown()
            return health, predict_response

        health, predict_response = asyncio.run(body())
        assert json.loads(health.body)["status"] == "draining"
        assert predict_response.status == 503


class TestLivenessReadinessSplit:
    def test_live_and_ready_ok_by_default(self):
        (live, ready) = run_app(get("/healthz/live"), get("/healthz/ready"))
        assert live[0] == 200
        assert live[1]["live"] is True
        assert ready[0] == 200
        assert ready[1] == {"ready": True, "reason": "ok"}

    def test_legacy_healthz_alias_still_answers(self):
        [(status, payload, _)] = run_app(get("/healthz"))
        assert status == 200
        assert payload["ready"] is True

    def test_shard_identity_stamped_when_set(self):
        (health, live, ready) = run_app(
            get("/healthz"), get("/healthz/live"), get("/healthz/ready"),
            shard_id=3,
        )
        assert health[1]["shard"] == 3
        assert live[1]["shard"] == 3
        assert ready[1]["shard"] == 3

    def test_draining_not_ready_but_still_live(self):
        async def body():
            app = RATApp()
            await app.startup()
            app.draining = True
            live = await app.handle(get("/healthz/live"))
            ready = await app.handle(get("/healthz/ready"))
            await app.shutdown()
            return live, ready

        live, ready = asyncio.run(body())
        assert live.status == 200
        assert ready.status == 503
        assert json.loads(ready.body)["reason"] == "draining"

    def test_cluster_floor_breaks_readiness_not_liveness(self):
        async def body():
            app = RATApp(shard_id=1)
            await app.startup()
            app.cluster_state = {"ready": False, "live": 1, "shards": 4}
            live = await app.handle(get("/healthz/live"))
            ready = await app.handle(get("/healthz/ready"))
            predicted = await app.handle(post("/v1/predict", WORKSHEET))
            await app.shutdown()
            return live, ready, predicted

        live, ready, predicted = asyncio.run(body())
        assert live.status == 200
        assert ready.status == 503
        assert "floor" in json.loads(ready.body)["reason"]
        # Readiness is a routing hint, not a request gate: work that
        # still arrives on this shard is served.
        assert predicted.status == 200


class TestPredict:
    def test_bare_worksheet_body(self):
        [(status, payload, _)] = run_app(post("/v1/predict", WORKSHEET))
        assert status == 200
        assert payload["name"] == "1-D PDF"
        assert set(payload["predictions"]) == {"single", "double"}

    def test_enveloped_worksheet_with_mode(self):
        [(status, payload, _)] = run_app(
            post("/v1/predict", {"worksheet": WORKSHEET, "mode": "single"})
        )
        assert status == 200
        assert set(payload["predictions"]) == {"single"}

    def test_result_bitwise_equal_to_scalar(self):
        [(_, payload, _)] = run_app(post("/v1/predict", WORKSHEET))
        rat = RATInput.from_dict(WORKSHEET)
        for mode in (BufferingMode.SINGLE, BufferingMode.DOUBLE):
            scalar = predict(rat, mode)
            served = payload["predictions"][mode.value]
            for field, value in served.items():
                assert value == getattr(scalar, field), (mode, field)

    def test_invalid_worksheet_400_with_scalar_message(self):
        bad = {**WORKSHEET, "alpha_read": 2.0}
        [(status, payload, _)] = run_app(post("/v1/predict", bad))
        assert status == 400
        assert payload["error"] == "alpha_read must be in (0, 1], got 2.0"

    def test_missing_field_400(self):
        bad = dict(WORKSHEET)
        del bad["ops_per_element"]
        [(status, payload, _)] = run_app(post("/v1/predict", bad))
        assert status == 400
        assert "missing worksheet field 'ops_per_element'" in payload["error"]

    def test_bad_mode_400(self):
        [(status, _, _)] = run_app(
            post("/v1/predict", {"worksheet": WORKSHEET, "mode": "warp"})
        )
        assert status == 400

    def test_non_object_body_400(self):
        [(status, _, _)] = run_app(post("/v1/predict", [1, 2]))
        assert status == 400

    def test_bad_deadline_400(self):
        [(status, _, _)] = run_app(
            post("/v1/predict", {"worksheet": WORKSHEET, "deadline_ms": 0})
        )
        assert status == 400


class TestBatchEndpoint:
    def test_mixed_valid_invalid_rows(self):
        sheets = [
            WORKSHEET,
            {**WORKSHEET, "alpha_write": -1.0},
            {**WORKSHEET, "clock_mhz": 75.0},
        ]
        [(status, payload, _)] = run_app(
            post("/v1/batch", {"worksheets": sheets, "mode": "single"})
        )
        assert status == 200
        assert payload["rows"] == 3
        assert payload["evaluated"] == 2
        assert payload["failed"] == 1
        ok0, bad1, ok2 = payload["results"]
        assert ok0["ok"] and ok2["ok"] and not bad1["ok"]
        assert bad1["error"] == "alpha_write must be in (0, 1], got -1.0"
        scalar = predict(RATInput.from_dict(sheets[2]), BufferingMode.SINGLE)
        assert ok2["predictions"]["single"]["speedup"] == scalar.speedup

    @pytest.mark.parametrize("bad_rows", [0, 1])
    def test_rows_validated_once(self, monkeypatch, bad_rows):
        # row_violations triages every row; neither selecting the kept
        # rows nor the kernel (once per mode) runs the rules again.
        calls = []
        validate = BatchInput._validate

        def counting(batch):
            calls.append(len(batch))
            validate(batch)

        monkeypatch.setattr(BatchInput, "_validate", counting)
        sheets = [{**WORKSHEET, "clock_mhz": 50.0 + i} for i in range(64)]
        if bad_rows:
            sheets[17] = {**sheets[17], "alpha_read": 1.5}
        [(status, payload, _)] = run_app(
            post("/v1/batch", {"worksheets": sheets})
        )
        assert status == 200
        assert payload["evaluated"] == 64 - bad_rows
        assert calls == []

    @pytest.mark.parametrize("rows, polled", [(3, True), (2, False)])
    def test_long_array_polls_the_loop_before_encoding(
        self, monkeypatch, rows, polled
    ):
        """An array longer than a micro-batch lets a task woken while it
        was evaluated run before it is encoded; a shorter one encodes
        at once."""
        events = []
        encode = app_module.json_response

        def recording_encode(*args, **kwargs):
            events.append("encoded")
            return encode(*args, **kwargs)

        monkeypatch.setattr(app_module, "json_response", recording_encode)

        async def body():
            app = RATApp(max_batch_size=2)
            await app.startup()
            evaluate = app._evaluate_rows
            woken = []

            async def bystander(ready):
                await ready
                events.append("bystander")

            def evaluate_rows(*args):
                # Woken while the loop is busy, as a socket read wakes
                # its connection's handler.
                loop = asyncio.get_running_loop()
                ready = loop.create_future()
                woken.append(asyncio.ensure_future(bystander(ready)))
                loop.call_soon(ready.set_result, None)
                events.append("evaluated")
                return evaluate(*args)

            app._evaluate_rows = evaluate_rows
            try:
                response = await app.handle(
                    post("/v1/batch", {"worksheets": [WORKSHEET] * rows})
                )
                await asyncio.gather(*woken)
                return response
            finally:
                await app.shutdown()

        assert asyncio.run(body()).status == 200
        assert events == (
            ["evaluated", "bystander", "encoded"] if polled
            else ["evaluated", "encoded", "bystander"]
        )

    def test_malformed_row_reported_in_place(self):
        [(status, payload, _)] = run_app(
            post("/v1/batch", {"worksheets": [WORKSHEET, {"nope": 1}]})
        )
        assert status == 200
        assert payload["results"][0]["ok"]
        assert "missing worksheet field" in payload["results"][1]["error"]

    def test_empty_batch_400(self):
        [(status, _, _)] = run_app(post("/v1/batch", {"worksheets": []}))
        assert status == 400

    def test_oversized_batch_413(self):
        [(status, payload, _)] = run_app(
            post("/v1/batch", {"worksheets": [WORKSHEET] * 5}),
            max_batch_rows=4,
        )
        assert status == 413
        assert "exceeds" in payload["error"]


class TestRowCounters:
    def test_both_routes_count_evaluated_and_quarantined_rows(self):
        """The same three rows, two valid and one invalid, count the
        same on both routes: predictions are rows evaluated, and each
        route evaluates them as one batch."""
        sheets = [WORKSHEET, {**WORKSHEET, "alpha_write": 1.5}, WORKSHEET]
        metrics = get_metrics()
        predictions = metrics.counter("serve.predictions")
        quarantined = metrics.counter("serve.quarantined")

        async def body():
            app = RATApp()
            await app.startup()

            def counts():
                batcher = app.batcher
                return (predictions.value, quarantined.value,
                        batcher.served, batcher.batches)

            try:
                before = counts()
                responses = await asyncio.gather(
                    *[app.handle(post("/v1/predict", ws)) for ws in sheets]
                )
                assert [r.status for r in responses] == [200, 400, 200]
                assert json.loads(responses[0].body)["batch_size"] == 3
                coalesced = counts()
                response = await app.handle(
                    post("/v1/batch", {"worksheets": sheets})
                )
                assert json.loads(response.body)["evaluated"] == 2
                return before, coalesced, counts()
            finally:
                await app.shutdown()

        before, coalesced, batched = asyncio.run(body())
        delta = [b - a for a, b in zip(before, coalesced)]
        assert delta == [2, 1, 2, 1]
        assert [b - a for a, b in zip(coalesced, batched)] == delta


class TestExploreEndpoint:
    def test_study_sweep(self):
        [(status, payload, _)] = run_app(
            post("/v1/explore", {
                "study": "pdf1d",
                "axes": {"clock_mhz": [100.0, 150.0, 200.0]},
                "top": 2,
            })
        )
        assert status == 200
        assert payload["points"] == 3
        assert len(payload["predictions"]) == 2
        speedups = [p["speedup"] for p in payload["predictions"]]
        assert speedups == sorted(speedups, reverse=True)

    def test_inline_worksheet_and_range_axis(self):
        [(status, payload, _)] = run_app(
            post("/v1/explore", {
                "worksheet": WORKSHEET,
                "axes": {"clock_mhz": {"lo": 100, "hi": 200, "count": 5}},
            })
        )
        assert status == 200
        assert payload["points"] == 5

    def test_missing_base_400(self):
        [(status, _, _)] = run_app(post("/v1/explore", {"axes": {}}))
        assert status == 400

    def test_unknown_axis_400(self):
        [(status, _, _)] = run_app(
            post("/v1/explore", {"study": "pdf1d", "axes": {"warp": [1]}})
        )
        assert status == 400

    def test_bad_axis_spec_400(self):
        for axes in ({"clock_mhz": []}, {"clock_mhz": {"lo": 1}},
                     {"clock_mhz": "75,100"}):
            [(status, _, _)] = run_app(
                post("/v1/explore", {"study": "pdf1d", "axes": axes})
            )
            assert status == 400, axes

    def test_same_spec_as_cli_same_axes_and_ranking(self, capsys):
        # `rat explore` and /v1/explore share the range helper and the
        # ranking: one spec, one answer, quarantined points included.
        from repro.cli import main

        assert main([
            "explore", "--study", "pdf1d", "--axis", "clock_mhz=-50:300:8",
            "--axis", "alpha=0.25,0.5,1.0", "--on-error", "quarantine",
            "--top", "5", "--format", "json",
        ]) == 0
        cli = json.loads(capsys.readouterr().out)
        [(status, served, _)] = run_app(post("/v1/explore", {
            "study": "pdf1d",
            "axes": {
                "clock_mhz": {"lo": -50, "hi": 300, "count": 8},
                "alpha": [0.25, 0.5, 1.0],
            },
            "on_error": "quarantine",
            "top": 5,
        }))
        assert status == 200
        assert served["axes"] == cli["axes"]
        assert len(served["axes"]["clock_mhz"]) == 8
        assert served["failures"] == cli["failures"]
        assert len(served["failures"]) == 6
        assert served["predictions"] == cli["predictions"]
        speedups = [p["speedup"] for p in served["predictions"]]
        assert len(speedups) == 5
        assert speedups == sorted(speedups, reverse=True)

    def test_point_limit_413(self):
        [(status, payload, _)] = run_app(
            post("/v1/explore", {
                "study": "pdf1d",
                "axes": {"clock_mhz": {"lo": 50, "hi": 500, "count": 100}},
            }),
            max_explore_points=10,
        )
        assert status == 413
        assert "100 points" in payload["error"]

    def test_oversized_range_413_before_it_is_built(self):
        # A lo/hi/count range is refused on its count alone: building
        # 10**6 axis values first would allocate tens of MB.
        async def body():
            app = RATApp(max_explore_points=10)
            await app.startup()
            try:
                tracemalloc.start()
                response = await app.handle(post("/v1/explore", {
                    "study": "pdf1d",
                    "axes": {"clock_mhz": {"lo": 50, "hi": 500,
                                           "count": 10**6}},
                }))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                await app.shutdown()
            return response, peak

        response, peak = asyncio.run(body())
        assert response.status == 413
        assert "1000000 points" in json.loads(response.body)["error"]
        assert peak < 1 << 20

    def test_non_numeric_top_400(self):
        for top in ("abc", None):
            [(status, payload, _)] = run_app(post("/v1/explore", {
                "study": "pdf1d",
                "axes": {"clock_mhz": [100.0]},
                "top": top,
            }))
            assert status == 400, top
            assert payload["error"] == f"non-numeric top: {top!r}"

    def test_non_numeric_inline_worksheet_400(self):
        errors = get_metrics().counter("serve.errors")
        before = errors.value
        [(status, payload, _)] = run_app(post("/v1/explore", {
            "worksheet": {**WORKSHEET, "clock_mhz": "abc"},
            "axes": {"alpha": [0.5]},
        }))
        assert status == 400
        assert payload["error"] == (
            "non-numeric worksheet field 'clock_mhz': 'abc'"
        )
        assert errors.value == before


class TestMetricsEndpoint:
    def test_plain_text_summary(self):
        [_, (status, text, response)] = run_app(
            post("/v1/predict", WORKSHEET), get("/metrics")
        )
        assert status == 200
        assert response.content_type.startswith("text/plain")
        assert "serve.requests" in text
        assert "serve.batch_size" in text


class TestErrorMapping:
    def test_429_carries_retry_after_header(self):
        async def body():
            app = RATApp(max_pending=1)
            await app.startup()
            try:
                first = asyncio.ensure_future(
                    app.handle(post("/v1/predict", WORKSHEET))
                )
                await asyncio.sleep(0)
                second = await app.handle(post("/v1/predict", WORKSHEET))
                await first
                return second
            finally:
                await app.shutdown()

        response = asyncio.run(body())
        assert response.status == 429
        headers = dict(response.headers)
        assert int(headers["Retry-After"]) >= 1

    def test_unexpected_exception_500(self):
        async def body():
            app = RATApp()
            await app.startup()
            app._route = None  # force a TypeError inside handle()
            try:
                return await app.handle(get("/healthz"))
            finally:
                await app.shutdown()

        response = asyncio.run(body())
        assert response.status == 500
        assert "internal error" in json.loads(response.body)["error"]

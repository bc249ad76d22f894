"""Serving suite: endpoints, concurrency, failure modes, drains.

Three layers of contract:

* **Protocol** -- the stdlib HTTP framing parses real requests, bounds
  header/body sizes, and every malformed input maps to the documented
  JSON error envelope with a stable ``code``.
* **Concurrency** -- >= 32 overlapping ``/predict`` requests (own
  connection each, one loop, ``asyncio.gather``) all return responses
  bit-identical to the offline :class:`BatchAligner`, and their obs
  spans stay siblings under the server root: no request's span ever
  nests inside another request's.
* **Lifecycle** -- shutdown drains: a request in flight when shutdown
  begins completes with 200, later requests get the
  ``server-draining`` envelope, and the health gauges stay consistent
  throughout.

No pytest-asyncio here: each test is a sync def that hands one
coroutine to ``asyncio.run`` -- the repo's dependency floor is
numpy/scipy only.
"""

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro.core.batch import BatchAligner
from repro.core.reference import Reference
from repro.errors import ServeError, ValidationError
from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.partitions.dm import DisaggregationMatrix
from repro.serve import (
    AlignmentServer,
    HttpRequest,
    RawJSON,
    ServeClient,
    ServingModel,
    encode_response,
    percentile,
    read_request,
)
from repro.store import ModelStore, model_fingerprint
from repro.store.store import KEY_LENGTH
from tests.prom_oracles import parse_prometheus_text


@pytest.fixture
def fitted(paired_references):
    objectives = np.asarray(
        [ref.source_vector * 1.25 for ref in paired_references]
    )
    return BatchAligner().fit(
        paired_references, objectives, attribute_names=["a", "b"]
    )


#: A finite ``/align`` payload whose predictions overflow on
#: :func:`_overflow_world`'s references.
OVERFLOWING_OBJECTIVES = [[1e306] * 5 + [1e303]]


def _overflow_world():
    """References on which weights [0, 1] overflow the Eq. 16 divide at
    row s5 (``predict()`` returns inf, which JSON cannot carry), and a
    finite model fitted on them."""
    sources = [f"s{i}" for i in range(6)]
    targets = [f"t{j}" for j in range(3)]
    alpha = np.zeros((6, 3))
    alpha[:5] = 1.0
    beta = alpha.copy()
    beta[5, 0] = 1e-6
    references = []
    for name, matrix in (("alpha", alpha), ("beta", beta)):
        dm = DisaggregationMatrix(matrix, sources, targets)
        references.append(Reference(name, dm.row_sums(), dm))
    return references, BatchAligner().fit(
        references, [alpha.sum(axis=1) + 1.0]
    )


def _refuse_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def _holds_float(value):
    """Whether ``value`` is or contains (in lists/dicts) a float."""
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(_holds_float(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_float(item) for item in value)
    return False


async def _raw_post(server, path, payload):
    """One POST on its own connection; ``(status, raw body bytes)``."""
    request = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(
        f"POST {path} HTTP/1.1\r\nConnection: close\r\n".encode()
        + f"Content-Length: {len(request)}\r\n\r\n".encode()
        + request
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def run_with_server(fitted, body, **server_kwargs):
    """Start a server with one model, run ``body(server, key)``, drain.

    ``body`` is an async callable; its return value is passed through.
    Shutdown is unconditional, so a failing assertion cannot leak a
    listening socket into the next test.
    """

    async def main():
        server = AlignmentServer(**server_kwargs)
        key = server.add_model(fitted)
        await server.start()
        try:
            return await body(server, key)
        finally:
            if not server.draining:
                await server.shutdown()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# protocol units (no sockets)


async def _parse(payload: bytes, limit: int = 1024):
    # The reader must be built inside a running loop (3.11 semantics).
    reader = asyncio.StreamReader()
    if payload:
        reader.feed_data(payload)
    reader.feed_eof()
    return await read_request(reader, limit)


class TestHttpFraming:
    def run(self, coro):
        return asyncio.run(coro)

    def test_parses_post_with_body(self):
        raw = (
            b"POST /predict HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 2\r\n\r\n{}"
        )
        request = self.run(_parse(raw))
        assert request.method == "POST"
        assert request.path == "/predict"
        assert request.body == b"{}"
        assert request.keep_alive

    def test_connection_close_disables_keep_alive(self):
        raw = (
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        request = self.run(_parse(raw))
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert self.run(_parse(b"")) is None

    def test_malformed_request_line(self):
        with pytest.raises(ServeError) as err:
            self.run(_parse(b"NONSENSE\r\n\r\n"))
        assert err.value.code == "bad-request"
        assert err.value.status == 400

    def test_post_without_length_is_411(self):
        raw = b"POST /predict HTTP/1.1\r\n\r\n"
        with pytest.raises(ServeError) as err:
            self.run(_parse(raw))
        assert err.value.status == 411

    def test_oversized_body_refused_before_read(self):
        raw = (
            b"POST /predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        )
        with pytest.raises(ServeError) as err:
            self.run(_parse(raw))
        assert err.value.code == "payload-too-large"
        assert err.value.status == 413

    def test_truncated_body_is_bad_request(self):
        raw = (
            b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
        )
        with pytest.raises(ServeError) as err:
            self.run(_parse(raw))
        assert err.value.code == "bad-request"

    def test_json_body_type_errors(self):
        request = HttpRequest("POST", "/p", {}, b"[1, 2]")
        with pytest.raises(ServeError, match="JSON object"):
            request.json_body()
        with pytest.raises(ServeError, match="not valid JSON"):
            HttpRequest("POST", "/p", {}, b"{nope").json_body()
        with pytest.raises(ServeError, match="empty"):
            HttpRequest("POST", "/p", {}, b"").json_body()
        # Deep nesting exhausts the decoder's recursion, well under the
        # body size limit.
        nested = b"[" * 200_000 + b"]" * 200_000
        with pytest.raises(ServeError, match="too deeply") as err:
            HttpRequest("POST", "/p", {}, nested).json_body()
        assert err.value.code == "bad-request"
        assert err.value.status == 400

    def test_encode_response_round_trips_floats(self):
        value = 0.1 + 0.2  # not exactly representable in decimal
        raw = encode_response(200, {"x": value}, keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert json.loads(body)["x"] == value

    def test_encode_response_bodies_equal_json_dumps(self):
        payload = {
            "k": "v\u00e9",
            "rows": [[0.1 + 0.2, 1e-300]],
            "nested": {"n": 2, "ok": True, "none": None},
        }
        spliced = dict(
            payload, rows=RawJSON.array([RawJSON.dumps(payload["rows"][0])])
        )
        expected = json.dumps(payload, allow_nan=False).encode()
        for sent in (payload, spliced):
            raw = encode_response(200, sent, keep_alive=True)
            assert raw.partition(b"\r\n\r\n")[2] == expected

    def test_non_finite_values_refused_beside_raw_json(self):
        with pytest.raises(ValueError):
            RawJSON.dumps([float("inf")])
        with pytest.raises(ValueError):
            encode_response(
                200, {"rows": RawJSON(b"[]"), "x": float("nan")}, True
            )


class TestMetricsPrimitives:
    def test_percentile_nearest_rank(self):
        samples = sorted(float(i) for i in range(1, 101))
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 95.0) == 95.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_percentile_refuses_bad_input(self):
        with pytest.raises(ValidationError):
            percentile([], 50.0)
        with pytest.raises(ValidationError):
            percentile([1.0], 0.0)


# ---------------------------------------------------------------------------
# endpoints


class TestEndpoints:
    def test_healthz(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                return key, await client.request("GET", "/healthz")

        key, (status, payload) = run_with_server(fitted, body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"][key]["n_attrs"] == 2
        assert payload["in_flight"] == 1  # this very request

    def test_predict_matches_offline_bit_exactly(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                return await client.request(
                    "POST", "/predict", {"model": key}
                )

        status, payload = run_with_server(fitted, body)
        assert status == 200
        assert payload["attributes"] == ["a", "b"]
        assert (np.asarray(payload["predictions"]) == fitted.predict()).all()

    def test_predict_single_attribute(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                return await client.request(
                    "POST", "/predict", {"model": key, "attribute": "b"}
                )

        status, payload = run_with_server(fitted, body)
        assert status == 200
        assert payload["attributes"] == ["b"]
        assert (
            np.asarray(payload["predictions"][0]) == fitted.predict()[1]
        ).all()

    def test_predict_resolves_model_prefix_and_default(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                by_prefix = await client.request(
                    "POST", "/predict", {"model": key[:5]}
                )
                implicit = await client.request(
                    "POST", "/predict", {}
                )  # only one model loaded
                return by_prefix, implicit

        (s1, p1), (s2, p2) = run_with_server(fitted, body)
        assert s1 == s2 == 200
        assert p1["predictions"] == p2["predictions"]

    def test_align_on_warm_stack(self, fitted):
        new_objectives = (fitted.objectives_ * 1.5).tolist()

        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                status, payload = await client.request(
                    "POST",
                    "/align",
                    {
                        "model": key,
                        "objectives": new_objectives,
                        "attribute_names": ["a2", "b2"],
                    },
                )
                assert payload["model"] in server.models
                return status, payload

        status, payload = run_with_server(fitted, body)
        offline = (
            BatchAligner()
            .fit(fitted.stack_, new_objectives, ["a2", "b2"])
            .predict()
        )
        assert status == 200
        assert payload["attributes"] == ["a2", "b2"]
        assert (np.asarray(payload["predictions"]) == offline).all()

    def test_align_can_persist_to_store(self, fitted, tmp_path):
        store = ModelStore(str(tmp_path / "store"))

        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                return await client.request(
                    "POST",
                    "/align",
                    {
                        "model": key,
                        "objectives": fitted.objectives_.tolist(),
                        "attribute_names": ["a", "b"],
                        "store": True,
                    },
                )

        status, payload = run_with_server(fitted, body, store=store)
        assert status == 200
        assert payload["stored"] is True
        loaded, _ = store.load(payload["model"])
        assert (
            np.asarray(payload["predictions"]) == loaded.predict()
        ).all()

    def test_disaggregate_returns_coo_triplets(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                return await client.request(
                    "POST",
                    "/disaggregate",
                    {"model": key, "attribute": "a"},
                )

        status, payload = run_with_server(fitted, body)
        assert status == 200
        dense = np.zeros(payload["shape"])
        dense[payload["rows"], payload["cols"]] = payload["values"]
        offline = fitted.predict_dms()[0].matrix.toarray()
        assert (dense == offline).all()

    def test_metrics_counters_and_percentiles(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                for _ in range(5):
                    await client.request(
                        "POST", "/predict", {"model": key}
                    )
                await client.request("POST", "/predict", {"model": "zz"})
                return await client.request("GET", "/metrics")

        status, payload = run_with_server(fitted, body)
        assert status == 200
        counters = payload["counters"]
        assert counters["requests_total"] == 6.0
        assert counters["errors_total"] == 1.0
        assert counters["responses_200"] == 5.0
        assert counters["responses_404"] == 1.0
        latency = payload["latency"]["/predict"]
        assert latency["count"] == 6.0
        assert (
            0.0
            < latency["p50_seconds"]
            <= latency["p95_seconds"]
            <= latency["p99_seconds"]
            <= latency["max_seconds"]
        )
        assert payload["gauges"]["models"] == 1.0

    def test_store_roundtrip_through_server(self, fitted, tmp_path):
        """load_from_store serves the same bits the live model does."""
        store = ModelStore(str(tmp_path / "store"))
        entry = store.save(fitted)

        async def main():
            server = AlignmentServer(store=store)
            key = server.load_from_store(entry.key[:6])
            assert key == entry.key
            await server.start()
            try:
                async with ServeClient(server.host, server.port) as client:
                    return await client.request(
                        "POST", "/predict", {"model": key}
                    )
            finally:
                await server.shutdown()

        status, payload = asyncio.run(main())
        assert status == 200
        assert (np.asarray(payload["predictions"]) == fitted.predict()).all()


# ---------------------------------------------------------------------------
# rows encoded once


class TestEncodedRows:
    """Registration encodes each prediction row once; ``/predict`` and
    ``/align`` splice those bytes, and the bodies stay byte-identical
    to ``json.dumps`` of the float rows."""

    @pytest.mark.parametrize(
        "selector, names",
        [
            ({"attribute": "b"}, ["b"]),
            ({"attributes": ["b", "a"]}, ["b", "a"]),
            ({}, ["a", "b"]),
        ],
        ids=["attribute", "attributes", "all-rows"],
    )
    def test_predict_body_is_json_dumps_of_float_rows(
        self, fitted, selector, names
    ):
        async def body(server, key):
            return key, await _raw_post(
                server, "/predict", {"model": key, **selector}
            )

        key, (status, raw) = run_with_server(fitted, body)
        offline = fitted.predict()
        expected = {
            "model": key,
            "attributes": names,
            "n_targets": offline.shape[1],
            "predictions": [
                offline[["a", "b"].index(name)].tolist() for name in names
            ],
        }
        assert status == 200
        assert raw == json.dumps(expected, allow_nan=False).encode()

    def test_align_body_is_json_dumps_of_float_rows(self, fitted):
        new_objectives = (fitted.objectives_ * 1.5).tolist()

        async def body(server, key):
            return await _raw_post(
                server,
                "/align",
                {
                    "model": key,
                    "objectives": new_objectives,
                    "attribute_names": ["a2", "b2"],
                },
            )

        status, raw = run_with_server(fitted, body)
        offline = BatchAligner().fit(
            fitted.stack_, new_objectives, ["a2", "b2"]
        )
        fingerprint = model_fingerprint(offline)
        expected = {
            "model": fingerprint[:KEY_LENGTH],
            "fingerprint": fingerprint,
            "attributes": ["a2", "b2"],
            "n_targets": offline.predict().shape[1],
            "predictions": offline.predict().tolist(),
            "stored": False,
        }
        assert status == 200
        assert raw == json.dumps(expected, allow_nan=False).encode()

    def test_predict_encodes_no_prediction_row(self, fitted, monkeypatch):
        encoded = []
        real_dumps = json.dumps

        def spy(value, *args, **kwargs):
            encoded.append(value)
            return real_dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)

        async def body(server, key):
            at_registration = list(encoded)
            encoded.clear()
            async with ServeClient(server.host, server.port) as client:
                answer = await client.request(
                    "POST", "/predict", {"model": key}
                )
            return at_registration, answer

        at_registration, (status, payload) = run_with_server(fitted, body)
        rows = fitted.predict().tolist()
        assert status == 200
        assert payload["predictions"] == rows
        # Each row went through the encoder once, at registration ...
        assert [value for value in at_registration if value in rows] == rows
        # ... and serving it encoded no float at all.
        assert encoded
        assert not any(_holds_float(value) for value in encoded)

    def test_serving_model_is_frozen(self, fitted):
        serving = ServingModel.from_model(fitted, health={"x": "ok"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            serving.rows = ()
        with pytest.raises(TypeError):
            serving.attribute_index["c"] = 2
        with pytest.raises(TypeError):
            serving.health["x"] = "fail"


# ---------------------------------------------------------------------------
# failure modes


class TestFailureModes:
    def _envelope(self, fitted, method, path, payload=None, raw=None):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                if raw is not None:
                    assert client._writer is not None
                    client._writer.write(raw)
                    await client._writer.drain()
                    return await client._read_response()
                return await client.request(method, path, payload)

        return run_with_server(fitted, body)

    def test_malformed_json_is_bad_request(self, fitted):
        raw = (
            b"POST /predict HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope"
        )
        status, payload = self._envelope(fitted, "POST", "/predict", raw=raw)
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert "JSON" in payload["error"]["message"]

    def test_unknown_model_fingerprint(self, fitted):
        status, payload = self._envelope(
            fitted, "POST", "/predict", {"model": "feedfacecafe"}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-model"

    def test_unknown_attribute(self, fitted):
        status, payload = self._envelope(
            fitted, "POST", "/predict", {"attribute": "nope"}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-attribute"
        assert "'a', 'b'" in payload["error"]["message"].replace(
            '"', "'"
        )

    def test_oversized_payload(self, fitted):
        big = {"model": "x" * 4096}

        async def body(server, key):
            server.max_body_bytes = 1024
            async with ServeClient(server.host, server.port) as client:
                return await client.request("POST", "/predict", big)

        status, payload = run_with_server(fitted, body)
        assert status == 413
        assert payload["error"]["code"] == "payload-too-large"

    def test_unknown_path(self, fitted):
        status, payload = self._envelope(fitted, "GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not-found"

    def test_method_not_allowed(self, fitted):
        status, payload = self._envelope(fitted, "POST", "/healthz", {})
        assert status == 405
        assert payload["error"]["code"] == "method-not-allowed"
        status, payload = self._envelope(fitted, "GET", "/predict")
        assert status == 405

    def test_core_validation_error_becomes_invalid_input(self, fitted):
        status, payload = self._envelope(
            fitted,
            "POST",
            "/align",
            {"objectives": [[1.0, 2.0]]},  # wrong width for the stack
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-input"

    @pytest.mark.parametrize(
        "body",
        [
            {"objectives": [["a", 1.0, 2.0, 3.0, 4.0, 5.0]]},
            {"objectives": "abc"},
            {"objectives": {"a": 1}},
            {"objectives": [[1.0] * 6, [1.0] * 5]},
            {"objectives": [[1.0] * 6], "masks": [["false", "true"]]},
            {"objectives": [[1.0] * 6], "masks": [[0.5, 1]]},
            {"objectives": [[1.0] * 6], "masks": [[None, 1]]},
            {"objectives": [[1.0] * 6] * 2, "masks": [[True], [True, True]]},
            {
                "objectives": [[1.0] * 6, [2.0] * 6],
                "attribute_names": ["a", "a"],
            },
        ],
        ids=[
            "non-numeric-entry",
            "string",
            "object",
            "ragged-rows",
            "string-masks",
            "fractional-mask",
            "null-mask",
            "ragged-masks",
            "duplicate-names",
        ],
    )
    def test_malformed_align_body_becomes_invalid_input(self, fitted, body):
        status, payload = self._envelope(fitted, "POST", "/align", body)
        assert status == 400
        assert payload["error"]["code"] == "invalid-input"

    def test_align_store_refusal_registers_nothing(self, fitted):
        """``"store": true`` on a server without a store is refused
        before the fit, so the one-model server still answers a
        ``/predict`` that names no model."""
        objectives = (fitted.objectives_ * 1.5).tolist()

        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                refused = await client.request(
                    "POST",
                    "/align",
                    {"objectives": objectives, "store": True},
                )
                follow_up = await client.request("POST", "/predict", {})
            return refused, follow_up, list(server.models)

        (status, payload), (follow_status, _), keys = run_with_server(
            fitted, body
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert follow_status == 200
        assert len(keys) == 1

    @pytest.mark.parametrize(
        "flag",
        ["false", "true", 0, 1, None, []],
        ids=["string-false", "string-true", "zero", "one", "null", "list"],
    )
    def test_align_store_must_be_a_json_boolean(
        self, fitted, tmp_path, flag
    ):
        store = ModelStore(str(tmp_path / "store"))
        objectives = (fitted.objectives_ * 1.5).tolist()

        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                answer = await client.request(
                    "POST",
                    "/align",
                    {"objectives": objectives, "store": flag},
                )
            return answer, list(server.models)

        (status, payload), keys = run_with_server(
            fitted, body, store=store
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert store.keys() == []
        assert len(keys) == 1

    def test_align_failed_save_registers_nothing(self, fitted, tmp_path):
        store = ModelStore(str(tmp_path / "store"))

        def failing_save(model):
            raise OSError("no space left on device")

        store.save = failing_save
        objectives = (fitted.objectives_ * 1.5).tolist()

        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                answer = await client.request(
                    "POST",
                    "/align",
                    {"objectives": objectives, "store": True},
                )
            return answer, list(server.models)

        (status, payload), keys = run_with_server(
            fitted, body, store=store
        )
        assert status == 500
        assert "no space left" in payload["error"]["message"]
        assert len(keys) == 1

    def test_align_without_objectives(self, fitted):
        status, payload = self._envelope(fitted, "POST", "/align", {})
        assert status == 400
        assert payload["error"]["code"] == "bad-request"

    def test_overflowing_align_answers_strict_json_envelope(self):
        references, model = _overflow_world()

        async def body(server, key):
            return await _raw_post(
                server, "/align", {"objectives": OVERFLOWING_OBJECTIVES}
            )

        status, raw_body = run_with_server(model, body)
        payload = json.loads(raw_body, parse_constant=_refuse_constant)
        assert 400 <= status < 500
        assert payload["error"]["code"] == "non-finite-prediction"
        overflowing = BatchAligner().fit(references, OVERFLOWING_OBJECTIVES)
        with pytest.raises(ServeError) as err:
            AlignmentServer().add_model(overflowing)
        assert err.value.code == "non-finite-prediction"

    def test_unencodable_payload_becomes_internal_envelope(self, fitted):
        async def body(server, key):
            server._healthz_payload = lambda: {"status": float("nan")}
            async with ServeClient(server.host, server.port) as client:
                answer = await client.request("GET", "/healthz")
            return answer, server.metrics.counter("errors_total")

        (status, payload), errors = run_with_server(fitted, body)
        assert status == 500
        assert payload["error"]["code"] == "internal"
        assert errors == 1

    def test_disaggregate_needs_exactly_one_attribute(self, fitted):
        status, payload = self._envelope(
            fitted, "POST", "/disaggregate", {}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-request"

    def test_errors_count_in_health_gauges(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                await client.request("POST", "/predict", {"model": "zz"})
                await client.request("GET", "/nope")
                return await client.request("GET", "/healthz")

        status, payload = run_with_server(fitted, body)
        assert status == 200
        assert payload["errors"] == 2
        assert payload["requests"] == 2  # healthz counts after respond


# ---------------------------------------------------------------------------
# concurrency


class TestConcurrency:
    N_CLIENTS = 32

    def test_concurrent_predicts_are_bit_identical(self, fitted):
        offline = fitted.predict()

        async def one(server, key, i):
            async with ServeClient(server.host, server.port) as client:
                # Vary the query shape across tasks to interleave
                # different handlers, not just identical ones.
                payload = (
                    {"model": key}
                    if i % 2 == 0
                    else {"model": key, "attributes": ["b", "a"]}
                )
                status, body = await client.request(
                    "POST", "/predict", payload
                )
                assert status == 200
                got = np.asarray(body["predictions"])
                want = (
                    offline if i % 2 == 0 else offline[[1, 0]]
                )
                return bool((got == want).all())

        async def body(server, key):
            return await asyncio.gather(
                *(one(server, key, i) for i in range(self.N_CLIENTS))
            )

        results = run_with_server(fitted, body)
        assert len(results) == self.N_CLIENTS
        assert all(results)

    def test_no_cross_request_span_leakage(self, fitted, capture_trace):
        """Every request span is a sibling under the server root."""

        async def body(server, key):
            async def one():
                async with ServeClient(server.host, server.port) as client:
                    await client.request("POST", "/predict", {"model": key})

            await asyncio.gather(*(one() for _ in range(self.N_CLIENTS)))

        with capture_trace("serve-isolation") as session:
            run_with_server(fitted, body)

        requests = session.find_spans("serve.request")
        assert len(requests) == self.N_CLIENTS
        request_ids = {record.span_id for record in requests}
        for record in requests:
            # Parent is NOT another request span...
            assert record.parent_id not in request_ids
            # ...and no other request span sits anywhere above it.
            ancestors = {
                ancestor.span_id
                for ancestor in session.ancestors_of(record)
            }
            assert not (ancestors & request_ids)
        # All requests share one parent: the server's root context.
        assert len({record.parent_id for record in requests}) == 1

    def test_request_spans_carry_endpoint_and_status(
        self, fitted, capture_trace
    ):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                await client.request("POST", "/predict", {"model": key})
                await client.request("POST", "/predict", {"model": "zz"})

        with capture_trace("serve-attrs") as session:
            run_with_server(fitted, body)

        by_status = sorted(
            (record.attrs["status"], record.attrs["endpoint"])
            for record in session.find_spans("serve.request")
        )
        assert by_status == [(200, "/predict"), (404, "/predict")]
        assert session.counters.get("serve.requests") == 2.0
        assert session.counters.get("serve.errors") == 1.0

    def test_keep_alive_reuses_one_connection(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                writer = client._writer
                for _ in range(10):
                    status, _ = await client.request(
                        "POST", "/predict", {"model": key}
                    )
                    assert status == 200
                return writer is client._writer

        assert run_with_server(fitted, body)


# ---------------------------------------------------------------------------
# lifecycle / drain


class TestLifecycle:
    def test_shutdown_drains_in_flight_request(self, fitted):
        async def body(server, key):
            server.request_delay = 0.2
            slow = ServeClient(server.host, server.port)
            await slow.connect()
            in_flight = asyncio.create_task(
                slow.request("POST", "/predict", {"model": key})
            )
            await asyncio.sleep(0.05)
            assert server.in_flight == 1
            shutdown = asyncio.create_task(server.shutdown())
            status, payload = await in_flight
            await shutdown
            await slow.close()
            return status, payload, server.in_flight

        status, payload, remaining = run_with_server(fitted, body)
        assert status == 200  # accepted before shutdown -> completed
        assert payload["attributes"] == ["a", "b"]
        assert remaining == 0

    def test_requests_after_drain_get_envelope(self, fitted):
        async def body(server, key):
            # An idle kept-alive connection opened before shutdown...
            lingering = ServeClient(server.host, server.port)
            await lingering.connect()
            status, _ = await lingering.request("GET", "/healthz")
            assert status == 200
            server.request_delay = 0.2
            holder = ServeClient(server.host, server.port)
            await holder.connect()
            held = asyncio.create_task(
                holder.request("POST", "/predict", {"model": key})
            )
            await asyncio.sleep(0.05)
            shutdown = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.05)
            # ...sends a request while draining: documented envelope.
            late_status, late_payload = await lingering.request(
                "GET", "/healthz"
            )
            held_status, _ = await held
            await shutdown
            await lingering.close()
            await holder.close()
            return held_status, late_status, late_payload

        held_status, late_status, late_payload = run_with_server(
            fitted, body
        )
        assert held_status == 200
        assert late_status == 503
        assert late_payload["error"]["code"] == "server-draining"

    def test_new_connections_refused_after_shutdown(self, fitted):
        async def body(server, key):
            host, port = server.host, server.port
            await server.shutdown()
            client = ServeClient(host, port)
            with pytest.raises(OSError):
                await client.connect()
            return True

        assert run_with_server(fitted, body)

    def test_double_start_is_typed(self, fitted):
        async def body(server, key):
            with pytest.raises(ServeError, match="already started"):
                await server.start()
            return True

        assert run_with_server(fitted, body)

    def test_shutdown_without_start_is_typed(self):
        with pytest.raises(ServeError, match="not started"):
            asyncio.run(AlignmentServer().shutdown())


# ---------------------------------------------------------------------------
# telemetry endpoints: Prometheus exposition + tail-sampled exemplars


async def _raw_get(host, port, path, accept=None):
    """One GET over a raw socket; returns (status, headers, body text).

    ``ServeClient`` is JSON-only by design, so the content-negotiated
    Prometheus text path is exercised the way a scraper would: a plain
    HTTP/1.1 request with an ``Accept`` header.
    """
    reader, writer = await asyncio.open_connection(host, port)
    head = f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
    if accept is not None:
        head += f"Accept: {accept}\r\n"
    head += "Connection: close\r\n\r\n"
    writer.write(head.encode())
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    header_blob, _, body = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode()


class TestPrometheusExposition:
    def test_metrics_text_round_trips_through_parser(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                for _ in range(3):
                    status, _payload = await client.request(
                        "POST", "/predict", {"model": key}
                    )
                    assert status == 200
                await client.request("GET", "/nope")  # one 404
            return await _raw_get(
                server.host, server.port, "/metrics", accept="text/plain"
            )

        status, headers, text = run_with_server(fitted, body)
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        # The parser applies scraper-side validation (types, labels,
        # cumulative +Inf-terminated buckets), so a clean parse IS the
        # format acceptance; the assertions below pin the content.
        families = parse_prometheus_text(text)
        requests = families["geoalign_requests_total"]
        assert requests.kind == "counter"
        assert requests.samples[0].value >= 4.0
        responses = families["geoalign_responses_total"]
        statuses = {dict(s.labels)["status"] for s in responses.samples}
        assert {"200", "404"} <= statuses
        latency = families["geoalign_request_seconds"]
        assert latency.kind == "histogram"
        endpoints = {
            dict(s.labels).get("endpoint") for s in latency.samples
        }
        assert "/predict" in endpoints
        sampled = families["geoalign_exemplars_sampled_total"]
        assert sampled.samples[0].value >= 4.0
        assert "geoalign_exemplars_retained" in families

    def test_health_gauge_has_no_sample_for_a_skipped_check(self, fitted):
        from repro.obs import Trace, evaluate_health

        verdicts = evaluate_health(Trace("fit"), model=fitted).verdicts()
        skipped = sorted(c for c, v in verdicts.items() if v == "skip")
        assert skipped and "fail" not in verdicts.values()
        edited = {"volume_preservation": "fail", "custom": "info"}

        async def body(server, _key):
            server.add_model(fitted, key="healthy", health=verdicts)
            server.add_model(fitted, key="edited", health=edited)
            return await _raw_get(
                server.host, server.port, "/metrics", accept="text/plain"
            )

        status, _headers, text = run_with_server(fitted, body)
        assert status == 200
        family = parse_prometheus_text(text)["geoalign_health_status"]
        assert "a skipped check has no sample" in family.help
        values = {
            (dict(s.labels)["model"], dict(s.labels)["check"]): s.value
            for s in family.samples
        }
        expected = {
            ("healthy", check): {"ok": 0.0, "warn": 1.0}[verdict]
            for check, verdict in verdicts.items()
            if verdict != "skip"
        }
        # A verdict outside the catalogue's (a hand-edited manifest)
        # still reads as warn.
        expected[("edited", "volume_preservation")] = 2.0
        expected[("edited", "custom")] = 1.0
        assert values == expected

    def test_metrics_defaults_to_json_snapshot(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                await client.request("POST", "/predict", {"model": key})
                return await client.request("GET", "/metrics")

        status, payload = run_with_server(fitted, body)
        assert status == 200
        counters = payload["counters"]
        assert counters["requests_total"] >= 1
        # Empty-window latency stats must be honest: every histogram
        # block carries a count, and stats appear only with data.
        for stats in payload["latency"].values():
            assert stats["count"] >= 1.0

    def test_openmetrics_accept_also_negotiates_text(self, fitted):
        async def body(server, key):
            return await _raw_get(
                server.host,
                server.port,
                "/metrics",
                accept="application/openmetrics-text",
            )

        status, headers, text = run_with_server(fitted, body)
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        parse_prometheus_text(text)  # must validate


class TestTailExemplars:
    def test_error_request_retained_with_full_trace(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                status, _ = await client.request("GET", "/missing")
                assert status == 404
                return await client.request("GET", "/debug/exemplars")

        status, payload = run_with_server(fitted, body)
        assert status == 200
        exemplars = payload["exemplars"]
        assert len(exemplars) == 1
        exemplar = exemplars[0]
        assert exemplar["reason"] == "error"
        assert exemplar["status"] == 404
        assert exemplar["endpoint"] == "/missing"
        stats = payload["stats"]
        assert stats["retained_errors"] == 1.0
        assert stats["sampled_total"] >= 1.0

    def test_injected_slow_request_retained_with_span_tree(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                # Build latency history so the endpoint has a p99 to be
                # slower than; fast requests are judged against it and
                # dropped.
                for _ in range(10):
                    status, _ = await client.request(
                        "POST", "/predict", {"model": key}
                    )
                    assert status == 200
                server.request_delay = 0.05  # inject a slow one
                status, _ = await client.request(
                    "POST", "/predict", {"model": key}
                )
                assert status == 200
                server.request_delay = 0.0
                return await client.request("GET", "/debug/exemplars")

        status, payload = run_with_server(fitted, body)
        assert status == 200
        # Priming requests may occasionally set a new running-max and
        # be retained too; the injected one is identified by its delay.
        slow = [
            e
            for e in payload["exemplars"]
            if e["reason"] == "slow" and e["seconds"] >= 0.05
        ]
        assert len(slow) == 1
        exemplar = slow[0]
        assert exemplar["endpoint"] == "/predict"
        assert exemplar["status"] == 200
        assert exemplar["p99_seconds"] is not None
        assert exemplar["seconds"] >= exemplar["p99_seconds"]
        # Full span tree in the JSONL record format: one trace header,
        # a serve.request root, and every span parented inside the
        # exemplar (so the tree is self-contained and renderable).
        records = exemplar["records"]
        assert records[0]["type"] == "trace"
        spans = [r for r in records if r["type"] == "span"]
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "serve.request"
        assert root["attrs"]["endpoint"] == "/predict"
        assert root["attrs"]["method"] == "POST"
        assert root["attrs"]["status"] == 200
        span_ids = {s["id"] for s in spans}
        assert all(
            s["parent"] in span_ids
            for s in spans
            if s["parent"] is not None
        )

    def test_first_clean_request_is_dropped(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                status, _ = await client.request(
                    "POST", "/predict", {"model": key}
                )
                assert status == 200
                return await client.request("GET", "/debug/exemplars")

        status, payload = run_with_server(fitted, body)
        assert status == 200
        # No latency history means no p99 to be slower than, and the
        # response was clean: deterministically dropped.
        assert payload["exemplars"] == []
        assert payload["stats"]["sampled_total"] >= 1.0

    def test_non_finite_exemplar_gauge_keeps_debug_json(self):
        _, model = _overflow_world()

        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                status, payload = await client.request(
                    "POST", "/align", {"objectives": OVERFLOWING_OBJECTIVES}
                )
                assert status == 400
                assert payload["error"]["code"] == "non-finite-prediction"
            # Read raw bodies: the retained error exemplar carries an
            # infinite volume residual, which must not break a later GET.
            return [
                await _raw_get(server.host, server.port, "/debug/exemplars")
                for _ in range(2)
            ]

        for status, _, text in run_with_server(model, body):
            assert status == 200
            payload = json.loads(text, parse_constant=_refuse_constant)
        (exemplar,) = payload["exemplars"]
        assert exemplar["reason"] == "error"
        gauges = exemplar["records"][0]["gauges"]
        assert gauges["health.volume_residual_max"] == "inf"

    def test_ring_buffer_bounds_retention(self, fitted):
        async def body(server, key):
            async with ServeClient(server.host, server.port) as client:
                for _ in range(6):
                    await client.request("GET", "/missing")
                return await client.request("GET", "/debug/exemplars")

        status, payload = run_with_server(
            fitted, body, exemplar_capacity=3
        )
        assert status == 200
        exemplars = payload["exemplars"]
        assert len(exemplars) == 3
        # Newest first, oldest evicted.
        ids = [e["id"] for e in exemplars]
        assert ids == sorted(ids, reverse=True)
        assert payload["stats"]["retained_errors"] == 6.0
        assert payload["stats"]["capacity"] == 3.0

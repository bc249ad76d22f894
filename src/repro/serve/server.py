"""The alignment server: warm fitted models behind an asyncio loop.

One :class:`AlignmentServer` holds a registry of fitted
:class:`~repro.core.batch.BatchAligner` models (loaded from a
:class:`~repro.store.ModelStore` or registered in-process) with their
target predictions precomputed, and answers JSON queries over HTTP:

========== ======= ====================================================
endpoint   method  answers
========== ======= ====================================================
/predict   POST    target-level estimates for chosen attributes
/align     POST    fit new objectives against a warm reference stack
/disagg... POST    one attribute's estimated DM as COO triplets
/healthz   GET     liveness + per-model health snapshot (503 draining)
/metrics   GET     counters/gauges/latency histograms -- JSON by
                   default, Prometheus 0.0.4 text when the Accept
                   header asks for text/plain or openmetrics
/debug/... GET     tail-sampled request exemplars (full span trees for
                   error responses and the slowest p99 tail)
========== ======= ====================================================

Design choices that make the hot path hot:

* ``/predict`` never touches the solver or the float encoder:
  registration computes every target prediction once and encodes each
  row to JSON bytes once (:class:`~repro.serve.http.RawJSON`), so a
  request is a dict lookup and a join of the stored rows, spliced into
  the response -- thousands of requests per second from one loop
  thread (the load harness gates this).  The rows cost about 19 bytes
  per target per attribute, paid at load: about 3.9 MB for a
  64-attribute model over 3,142 targets.
* A :class:`ServingModel` is frozen, and handlers never mutate shared
  state outside the lock-guarded metrics, so overlapping requests are
  answered bit-identically to the offline engine.
* ``/align`` reuses the loaded :class:`ReferenceStack` wholesale --
  the design/Gram build and union-pattern construction are skipped,
  leaving N small solves and two matmuls.  It runs inline on the loop
  (alignment latency is milliseconds at serving scale); the fitted
  result is answered with the rows its new slot encoded, and joins the
  registry once any requested save to the store has succeeded.

Observability: the tracing state active at :meth:`start` is captured
(:func:`~repro.obs.trace.current_trace_context`) and re-activated per
request task, so each request records its own ``serve.request`` span
parented to the server's root -- concurrent requests never nest under
one another (the concurrency suite asserts exactly this).  On top of
that, every request runs under its own throwaway session feeding the
:class:`~repro.serve.sampler.TailSampler`, which retains full span
trees only for error responses and the slowest p99 tail.

Shutdown drains: :meth:`shutdown` stops accepting, lets in-flight
requests finish (bounded by ``drain_grace``), answers anything newly
arriving on kept-alive connections with the ``server-draining``
envelope, then closes the transports.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.core.batch import BatchAligner
from repro.errors import ReproError, ServeError, StoreError
from repro.obs.health import FAIL, OK, SKIP, WARN
from repro.obs.promfmt import (
    PROMETHEUS_CONTENT_TYPE,
    MetricFamily,
    render_prometheus_text,
)
from repro.obs.trace import (
    Trace,
    TraceContext,
    current_trace_context as _trace_context,
    event as _obs_event,
    incr as _obs_incr,
    set_gauge_max as _gauge_max,
    span as _span,
)
from repro.serve.http import (
    HttpRequest,
    RawJSON,
    encode_response,
    read_request,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.sampler import TailSampler
from repro.store.store import KEY_LENGTH, ModelStore, model_fingerprint

__all__ = ["AlignmentServer", "ServingModel"]

#: Endpoints answered with a JSON body on POST.
_POST_ENDPOINTS = ("/predict", "/align", "/disaggregate")

#: Endpoints answered on GET.
_GET_ENDPOINTS = ("/healthz", "/metrics", "/debug/exemplars")

#: Health-verdict encoding for the ``geoalign_health_status`` gauge
#: family (0 = healthy, higher = worse).  A skipped check had no data
#: and exports no sample; a verdict outside the catalogue's (say, from a
#: hand-edited manifest) reads as warn.
_HEALTH_VALUES = {OK: 0.0, WARN: 1.0, FAIL: 2.0}


@dataclass(frozen=True)
class _TextBody:
    """A non-JSON response body (the Prometheus exposition path)."""

    text: str
    content_type: str


@dataclass(frozen=True)
class ServingModel:
    """One registry slot: a fitted aligner plus its encoded answers.

    ``rows[i]`` is attribute ``i``'s target predictions, encoded to
    JSON once at registration.  The slot is frozen and its mappings
    are read-only, so every request reads what registration encoded.
    """

    key: str
    fingerprint: str
    model: BatchAligner
    n_targets: int
    rows: tuple[RawJSON, ...]
    attribute_index: Mapping[str, int]
    health: Mapping[str, str]

    @property
    def attribute_names(self) -> list[str]:
        return list(self.model.attribute_names_ or [])

    @classmethod
    def from_model(
        cls,
        model: BatchAligner,
        key: str | None = None,
        health: dict[str, str] | None = None,
    ) -> "ServingModel":
        """Register-ready slot with every prediction row encoded;
        refuses a model with non-finite predictions, which JSON cannot
        carry."""
        fingerprint = model_fingerprint(model)
        predictions = model.predict()
        bad = int(np.count_nonzero(~np.isfinite(predictions)))
        if bad:
            raise ServeError(
                f"model {fingerprint[:KEY_LENGTH]} predicts {bad} "
                "non-finite target aggregate(s); refusing to serve it",
                code="non-finite-prediction",
                status=400,
            )
        names = list(model.attribute_names_ or [])
        return cls(
            key=key if key is not None else fingerprint[:KEY_LENGTH],
            fingerprint=fingerprint,
            model=model,
            n_targets=int(predictions.shape[1]),
            rows=tuple(RawJSON.dumps(row.tolist()) for row in predictions),
            attribute_index=MappingProxyType(
                {name: i for i, name in enumerate(names)}
            ),
            health=MappingProxyType(dict(health or {})),
        )


def _error_envelope(code: str, message: str) -> dict[str, object]:
    """The documented error body shape (see docs/serving.md)."""
    return {"error": {"code": code, "message": message}}


def _encode(
    status: int, payload: "dict[str, object] | _TextBody", keep_alive: bool
) -> tuple[int, bytes]:
    """The final status and response bytes; a payload JSON cannot
    carry (a non-finite float) becomes the ``internal`` envelope."""
    if isinstance(payload, _TextBody):
        return status, encode_response(
            status,
            payload.text,
            keep_alive,
            content_type=payload.content_type,
        )
    try:
        return status, encode_response(status, payload, keep_alive)
    except ValueError as exc:
        envelope = _error_envelope(
            "internal", f"response is not JSON-encodable: {exc}"
        )
        return 500, encode_response(500, envelope, keep_alive)


class AlignmentServer:
    """Serve align/predict/disaggregate queries from warm models.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.ModelStore` backing
        :meth:`load_from_store` and ``/align``'s ``"store": true``.
    host, port:
        Bind address; port 0 picks an ephemeral port (reported by
        :meth:`start`).
    max_body_bytes:
        Request-body bound; larger uploads get the
        ``payload-too-large`` envelope without being buffered.
    drain_grace:
        Seconds :meth:`shutdown` waits for in-flight requests before
        closing their transports anyway.
    """

    def __init__(
        self,
        store: ModelStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 8 * 1024 * 1024,
        drain_grace: float = 5.0,
        exemplar_capacity: int = 32,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.drain_grace = drain_grace
        self.metrics = ServerMetrics()
        self.tail = TailSampler(capacity=exemplar_capacity)
        self._models: dict[str, ServingModel] = {}
        self._server: asyncio.Server | None = None
        self._started_at: float | None = None
        self._draining = False
        self._in_flight = 0
        self._idle: asyncio.Event | None = None
        self._closed: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._obs_ctx: TraceContext | None = None
        #: Test hook: seconds each request parks before dispatch, so the
        #: failure-mode suite can hold a request in flight across a
        #: shutdown call.  Never set outside tests.
        self.request_delay = 0.0

    # -- model registry -------------------------------------------------
    @property
    def models(self) -> dict[str, ServingModel]:
        """The live registry (read-only by convention)."""
        return self._models

    def add_model(
        self,
        model: BatchAligner,
        key: str | None = None,
        health: dict[str, str] | None = None,
    ) -> str:
        """Register one fitted aligner; returns its serving key."""
        serving = ServingModel.from_model(model, key=key, health=health)
        self._models[serving.key] = serving
        return serving.key

    def load_from_store(self, prefix: str) -> str:
        """Warm-load one stored model by key prefix; returns the key."""
        if self.store is None:
            raise StoreError(
                "this server has no model store configured"
            )
        model, entry = self.store.load(prefix)
        serving = ServingModel.from_model(
            model, key=entry.key, health=entry.health
        )
        self._models[serving.key] = serving
        return serving.key

    def load_all_from_store(self) -> list[str]:
        """Warm-load every artifact in the store; returns the keys."""
        if self.store is None:
            raise StoreError(
                "this server has no model store configured"
            )
        return [self.load_from_store(key) for key in self.store.keys()]

    def _resolve_model(self, body: dict[str, object]) -> ServingModel:
        spec = body.get("model")
        if spec is None:
            if len(self._models) == 1:
                return next(iter(self._models.values()))
            raise ServeError(
                f"request must name a model ({len(self._models)} loaded); "
                "pass {'model': <key prefix>}",
                code="bad-request",
                status=400,
            )
        if not isinstance(spec, str) or not spec:
            raise ServeError(
                "model must be a non-empty key-prefix string",
                code="bad-request",
                status=400,
            )
        matches = [
            key for key in self._models if key.startswith(spec)
        ] or [
            key
            for key, serving in self._models.items()
            if serving.fingerprint.startswith(spec)
        ]
        if not matches:
            raise ServeError(
                f"no loaded model matches fingerprint prefix {spec!r}",
                code="unknown-model",
                status=404,
            )
        if len(matches) > 1:
            raise ServeError(
                f"model prefix {spec!r} is ambiguous: {sorted(matches)}",
                code="bad-request",
                status=400,
            )
        return self._models[matches[0]]

    # -- lifecycle ------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)`` bound."""
        if self._server is not None:
            raise ServeError("server is already started")
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = asyncio.Event()
        self._obs_ctx = _trace_context()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = str(sockname[0]), int(sockname[1])
        self._started_at = time.perf_counter()
        _obs_event("serve.started", host=self.host, port=self.port)
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` completes (CLI foreground mode)."""
        if self._closed is None:
            raise ServeError("server is not started")
        await self._closed.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight requests, close transports.

        With ``drain=True`` (the default) requests already being
        processed run to completion (bounded by ``drain_grace``); new
        requests arriving on kept-alive connections are answered with
        the ``server-draining`` envelope and a closed connection.
        """
        if self._server is None or self._closed is None:
            raise ServeError("server is not started")
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if drain and self._idle is not None and self._in_flight > 0:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.drain_grace
                )
            except asyncio.TimeoutError:
                _obs_event(
                    "serve.drain_timeout", in_flight=self._in_flight
                )
        for writer in list(self._writers):
            writer.close()
        _obs_event("serve.stopped", requests=self.metrics.counter(
            "requests_total"
        ))
        self._closed.set()

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.max_body_bytes
                    )
                except ServeError as exc:
                    # Framing failed: answer the envelope and drop the
                    # connection (the stream position is unreliable).
                    self.metrics.incr("requests_total")
                    self.metrics.incr("errors_total")
                    self.metrics.incr(f"responses_{exc.status}")
                    writer.write(
                        encode_response(
                            exc.status,
                            _error_envelope(exc.code, str(exc)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._handle_request(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_request(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Process one framed request; returns keep-alive.

        Every accepted request runs under a throwaway per-request
        :class:`~repro.obs.trace.Trace` session *in addition to* any
        sessions captured at :meth:`start` -- the per-request session
        feeds the tail sampler, which retains the full span tree only
        for error responses and the slow p99 tail, so tracing every
        request costs one small object, not unbounded JSONL.
        """
        started = time.perf_counter()
        # Draining is decided at accept time: a request framed before
        # shutdown began runs to completion; one arriving after gets
        # the envelope even if an earlier in-flight request is slow.
        accepted = not self._draining
        self._in_flight += 1
        if self._idle is not None:
            self._idle.clear()
        obs_ctx = self._obs_ctx
        base_sessions = obs_ctx.sessions if obs_ctx is not None else ()
        base_parent = obs_ctx.parent_id if obs_ctx is not None else None
        session = Trace(f"request {request.method} {request.path}")
        request_ctx = TraceContext(
            sessions=base_sessions + (session,), parent_id=base_parent
        )
        payload: "dict[str, object] | _TextBody"
        try:
            if self.request_delay > 0.0:
                await asyncio.sleep(self.request_delay)
            if not accepted:
                status, payload = 503, _error_envelope(
                    "server-draining",
                    "the server is draining and no longer "
                    "accepts requests",
                )
            else:
                with request_ctx.activate():
                    with _span(
                        "serve.request",
                        method=request.method,
                        endpoint=request.path,
                    ) as record:
                        status, payload = self._dispatch(request)
                        if record is not None:
                            record.attrs["status"] = status
                    _obs_incr("serve.requests")
                    if status >= 400:
                        _obs_incr("serve.errors")
        finally:
            self._in_flight -= 1
            if self._in_flight == 0 and self._idle is not None:
                self._idle.set()
        elapsed = time.perf_counter() - started
        session.ended = time.perf_counter()
        keep_alive = request.keep_alive and not self._draining
        status, response = _encode(status, payload, keep_alive)
        # The p99 estimate is read *before* this request's latency is
        # folded in, so the tail verdict compares against prior traffic.
        p99 = self.metrics.latency_quantile(request.path, 0.99)
        self.metrics.incr("requests_total")
        self.metrics.incr(f"responses_{status}")
        if status >= 400:
            self.metrics.incr("errors_total")
        self.metrics.observe_latency(request.path, elapsed)
        if accepted:
            self.tail.observe(
                session,
                endpoint=request.path,
                method=request.method,
                status=status,
                seconds=elapsed,
                p99=p99,
            )
        if obs_ctx is not None:
            with obs_ctx.activate():
                _gauge_max("serve.latency_max_seconds", elapsed)
        writer.write(response)
        await writer.drain()
        return keep_alive

    # -- dispatch -------------------------------------------------------
    def _dispatch(
        self, request: HttpRequest
    ) -> tuple[int, "dict[str, object] | _TextBody"]:
        """Route one request; every failure becomes an envelope."""
        try:
            if request.path == "/healthz":
                self._require_method(request, "GET")
                return 200, self._healthz_payload()
            if request.path == "/metrics":
                self._require_method(request, "GET")
                # Content negotiation: Prometheus scrapers advertise
                # text/plain (or openmetrics); everything else -- the
                # ServeClient harness, the CI smoke curl -- keeps the
                # historical JSON snapshot.
                accept = request.headers.get("accept", "")
                if "text/plain" in accept or "openmetrics" in accept:
                    return 200, _TextBody(
                        self._metrics_prometheus(),
                        PROMETHEUS_CONTENT_TYPE,
                    )
                return 200, self._metrics_payload()
            if request.path == "/debug/exemplars":
                self._require_method(request, "GET")
                return 200, self._exemplars_payload()
            if request.path == "/predict":
                self._require_method(request, "POST")
                return 200, self._predict(request.json_body())
            if request.path == "/align":
                self._require_method(request, "POST")
                return 200, self._align(request.json_body())
            if request.path == "/disaggregate":
                self._require_method(request, "POST")
                return 200, self._disaggregate(request.json_body())
            raise ServeError(
                f"no endpoint at {request.path!r}",
                code="not-found",
                status=404,
            )
        except ServeError as exc:
            return exc.status, _error_envelope(exc.code, str(exc))
        except ReproError as exc:
            # Core validation errors (bad shapes, empty objectives, ...)
            # are client mistakes, not server faults.
            return 400, _error_envelope("invalid-input", str(exc))
        except Exception as exc:  # repro-lint: allow[bare-except] a server must answer 500, never die on one request; the envelope carries the type  # pragma: no cover - defensive
            return 500, _error_envelope(
                "internal", f"{type(exc).__name__}: {exc}"
            )

    @staticmethod
    def _require_method(request: HttpRequest, method: str) -> None:
        if request.method != method:
            raise ServeError(
                f"{request.path} answers {method}, not {request.method}",
                code="method-not-allowed",
                status=405,
            )

    # -- endpoint payloads ----------------------------------------------
    def _healthz_payload(self) -> dict[str, object]:
        return {
            "status": "ok",
            "models": {
                key: {
                    "fingerprint": serving.fingerprint,
                    "n_attrs": len(serving.attribute_names),
                    "health": dict(serving.health),
                }
                for key, serving in sorted(self._models.items())
            },
            "in_flight": self._in_flight,
            "requests": self.metrics.counter("requests_total"),
            "errors": self.metrics.counter("errors_total"),
            "uptime_seconds": self.uptime_seconds,
        }

    def _live_gauges(self) -> dict[str, float]:
        """Current server gauges, shared by both /metrics renderings.

        Warm-stack residency: bytes held by every loaded model's
        reference stack (``R``, the operators and the union value
        stack, each once built), and the union-pattern size and density
        of the union stacks built so far (store-loaded models carry
        theirs).  Reading the gauges builds nothing.
        """
        stacks = [
            serving.model.stack_
            for serving in self._models.values()
            if serving.model.stack_ is not None
        ]
        unions = [
            union
            for union in (stack.built_dm_stack for stack in stacks)
            if union is not None
        ]
        return {
            "models": float(len(self._models)),
            "in_flight": float(self._in_flight),
            "uptime_seconds": self.uptime_seconds,
            "stack_nnz": float(sum(union.nnz for union in unions)),
            "stack_resident_bytes": float(
                sum(stack.resident_bytes for stack in stacks)
            ),
            "stack_density": (
                min(union.density for union in unions) if unions else 1.0
            ),
        }

    def _metrics_payload(self) -> dict[str, object]:
        snapshot = self.metrics.snapshot()
        snapshot["gauges"] = self._live_gauges()
        snapshot["exemplars"] = self.tail.stats()
        return snapshot

    def _metrics_prometheus(self) -> str:
        """The Prometheus 0.0.4 text rendering of ``/metrics``.

        Counters, latency histograms and the live gauges come from
        :meth:`ServerMetrics.prometheus_families`; per-model
        ``health.*`` verdicts and tail-sampler stats are appended here
        because they are server state, not request metrics.
        """
        families = self.metrics.prometheus_families(self._live_gauges())
        health = MetricFamily(
            name="geoalign_health_status",
            kind="gauge",
            help=(
                "Model health verdicts (0 = ok, 1 = warn, 2 = fail; a "
                "skipped check has no sample)."
            ),
        )
        for key, serving in sorted(self._models.items()):
            for check, verdict in sorted(serving.health.items()):
                if verdict == SKIP:
                    continue
                health.add(
                    _HEALTH_VALUES.get(verdict, 1.0),
                    (("model", key), ("check", check)),
                )
        if health.samples:
            families.append(health)
        sampler_stats = self.tail.stats()
        sampled = MetricFamily(
            name="geoalign_exemplars_sampled_total",
            kind="counter",
            help="Requests judged by the tail sampler.",
        )
        sampled.add(sampler_stats["sampled_total"])
        retained = MetricFamily(
            name="geoalign_exemplars_retained",
            kind="gauge",
            help="Exemplar traces currently held in the ring buffer.",
        )
        retained.add(sampler_stats["retained"])
        families.extend([sampled, retained])
        return render_prometheus_text(families)

    def _exemplars_payload(self) -> dict[str, object]:
        return {
            "exemplars": [
                exemplar.to_json() for exemplar in self.tail.exemplars()
            ],
            "stats": self.tail.stats(),
        }

    def _selected_attributes(
        self, serving: ServingModel, body: dict[str, object]
    ) -> list[str]:
        if "attribute" in body and "attributes" in body:
            raise ServeError(
                "pass either 'attribute' or 'attributes', not both",
                code="bad-request",
                status=400,
            )
        if "attribute" in body:
            names = [body["attribute"]]
        elif "attributes" in body:
            names = body["attributes"]  # type: ignore[assignment]
            if not isinstance(names, list) or not names:
                raise ServeError(
                    "'attributes' must be a non-empty list of names",
                    code="bad-request",
                    status=400,
                )
        else:
            return serving.attribute_names
        resolved: list[str] = []
        for name in names:
            if (
                not isinstance(name, str)
                or name not in serving.attribute_index
            ):
                raise ServeError(
                    f"model {serving.key} has no attribute {name!r} "
                    f"(it serves {serving.attribute_names})",
                    code="unknown-attribute",
                    status=404,
                )
            resolved.append(name)
        return resolved

    def _predict(self, body: dict[str, object]) -> dict[str, object]:
        serving = self._resolve_model(body)
        names = self._selected_attributes(serving, body)
        return {
            "model": serving.key,
            "attributes": names,
            "n_targets": serving.n_targets,
            "predictions": RawJSON.array(
                serving.rows[serving.attribute_index[name]]
                for name in names
            ),
        }

    def _align(self, body: dict[str, object]) -> dict[str, object]:
        serving = self._resolve_model(body)
        objectives = body.get("objectives")
        if objectives is None:
            raise ServeError(
                "align requests must carry 'objectives'",
                code="bad-request",
                status=400,
            )
        attribute_names = body.get("attribute_names")
        if attribute_names is not None and not isinstance(
            attribute_names, list
        ):
            raise ServeError(
                "'attribute_names' must be a list",
                code="bad-request",
                status=400,
            )
        store = body.get("store", False)
        if not isinstance(store, bool):
            raise ServeError(
                "'store' must be a JSON boolean",
                code="bad-request",
                status=400,
            )
        if store and self.store is None:
            raise ServeError(
                "this server has no model store configured; "
                "cannot honour 'store': true",
                code="bad-request",
                status=400,
            )
        base = serving.model
        stack = base.stack_
        assert stack is not None
        with _span("serve.align", base=serving.key):
            fitted = BatchAligner(
                normalize=base.normalize, denominator=base.denominator
            ).fit(
                stack,
                objectives,  # type: ignore[arg-type]
                attribute_names=attribute_names,  # type: ignore[arg-type]
                masks=body.get("masks"),  # type: ignore[arg-type]
            )
            new_serving = ServingModel.from_model(fitted)
        if store:
            assert self.store is not None
            self.store.save(fitted)
        # Registered last: a refused or failed request leaves the
        # registry as it found it.
        self._models[new_serving.key] = new_serving
        return {
            "model": new_serving.key,
            "fingerprint": new_serving.fingerprint,
            "attributes": new_serving.attribute_names,
            "n_targets": new_serving.n_targets,
            "predictions": RawJSON.array(new_serving.rows),
            "stored": store,
        }

    def _disaggregate(self, body: dict[str, object]) -> dict[str, object]:
        serving = self._resolve_model(body)
        names = self._selected_attributes(serving, body)
        if len(names) != 1:
            raise ServeError(
                "disaggregate answers one attribute per request; "
                "pass {'attribute': <name>}",
                code="bad-request",
                status=400,
            )
        model = serving.model
        stack = model.stack_
        assert stack is not None
        scaled = model._compute_scaled_values()
        row = scaled[serving.attribute_index[names[0]]]
        nonzero = np.flatnonzero(row)
        return {
            "model": serving.key,
            "attribute": names[0],
            "shape": [stack.n_sources, stack.n_targets],
            "rows": stack.entry_rows[nonzero].tolist(),
            "cols": stack.entry_cols[nonzero].tolist(),
            "values": row[nonzero].tolist(),
        }

    def __repr__(self) -> str:
        state = "draining" if self._draining else (
            "serving" if self._server is not None else "stopped"
        )
        return (
            f"AlignmentServer({self.host}:{self.port}, "
            f"models={len(self._models)}, {state})"
        )

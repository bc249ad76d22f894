"""The ``serve`` workload: the table model behind ``repro.cli serve``.

Set-up fits the ``table`` model, saves it with ``ModelStore.save`` and
starts ``python -m repro.cli serve --store DIR --port 0 --ready-file F``
as a child process.  Load is a closed loop over 2 keep-alive connections
in this process's asyncio loop, with one request in flight at a time;
request bodies are encoded before the timed phase.  The mix is a fixed
interleave of 3 ``/predict`` (one attribute each) to 1 ``/align`` (one
new objective fitted on the warm stack); 8 distinct ``/align`` payloads
are cycled so the server's model registry stays bounded.  One in five
request groups keeps its response body, and every kept body must equal
the offline row bit for bit.

Why one request in flight: the server runs ``/align`` inline on its
event loop, so with both connections busy a ``/predict`` waits out the
other connection's fit, and queueing behind the other connection
spreads ``/predict`` latencies into a ramp.  Measured on a 2-core host,
that moved ``op_p50_s`` by 19 % (interquartile range over median)
between runs of identical code, against 6-14 % with one request in
flight, at the same throughput (the single-threaded server is the
bottleneck either way).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np

from repro.core.batch import BatchAligner, ReferenceStack
from repro.serve import encode_response
from repro.store import ModelStore

from perfbench import checks, envinfo, inputs
from perfbench.calibrate import Calibrator
from perfbench.checks import CheckFailed
from perfbench.spans import SpanRecorder
from perfbench.workloads import (
    OpWorkload,
    kernel_layers,
    median,
    percentile,
    solver_layers,
    stack_layers,
)

#: Closed-loop clients, each on its own keep-alive connection.
CONNECTIONS = 2
#: Requests per group: 3 ``/predict`` then 1 ``/align``.
GROUP = 4
#: Requests before the timed phase (covers every ``/align`` payload).
WARMUP_REQUESTS = 64
#: Consecutive requests per traced/untraced block in a traced run.
TRACE_BLOCK = 64
#: Seconds to wait for the server to start or to stop.
SERVER_TIMEOUT = 60.0
#: Seconds of load between two calibration kernels.
SLICE_S = 0.5


class Exchange(NamedTuple):
    """One request's round trip, as the client saw it."""

    seq: int
    kind: str
    index: int
    status: int
    rtt: float
    traced: bool
    factor: float


def _percentile_window_ok(kinds_sorted: list[str], q: float, kind: str) -> bool:
    """Whether the ranks around percentile ``q`` belong to one group.

    The mix puts /predict in the lower 75 % of latencies and /align in
    the upper 25 %; a percentile is only meaningful if it sits well
    inside one group, not at the boundary between them.
    """
    n = len(kinds_sorted)
    lo = int(n * (q - 5.0) / 100.0)
    hi = max(int(n * (q + 5.0) / 100.0), lo + 1)
    window = kinds_sorted[lo:hi]
    return window.count(kind) >= 0.9 * len(window)


class ServeWorkload(OpWorkload):
    """The ``table`` model served over HTTP; an op is one round trip."""

    name = "serve"
    attrs_per_op = 1
    min_coverage = 0.0

    def __init__(self, seed: int, scale: float, root: str) -> None:
        super().__init__(seed, scale)
        self.root = root
        self.workdir = os.path.join(root, ".perfbench_work", f"serve-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.rep = 0
        self.server: subprocess.Popen | None = None
        self.loop = asyncio.new_event_loop()
        self.conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.timings: dict[str, list[float]] = {
            k: []
            for k in ("stack", "fit", "predict", "save", "ready")
        }

    # -- set-up -----------------------------------------------------------
    def generate(self) -> None:
        self.references = inputs.us_references(self.scale)
        n_model = inputs.TABLE_ATTRIBUTES
        attrs = inputs.mixture_attributes(
            self.references, n_model + inputs.SERVE_ALIGN_PAYLOADS, self.seed, "table"
        )
        self.objectives = attrs.objectives[:n_model]
        self.truth = attrs.truth[:n_model]
        self.align_objectives = attrs.objectives[n_model:]
        self.align_truth = attrs.truth[n_model:]
        self.names = [f"attr-{j:02d}" for j in range(n_model)]

    def _timed(self, key: str, call):
        start = time.perf_counter()
        out = call()
        self.timings[key].append(time.perf_counter() - start)
        return out

    def setup_program(self) -> None:
        self.stack = self._timed("stack", lambda: ReferenceStack(self.references))
        self.model = self._timed(
            "fit",
            lambda: BatchAligner().fit(
                self.stack, self.objectives, attribute_names=self.names
            ),
        )
        self.offline = self._timed("predict", self.model.predict)
        self._align_rows = None
        self.store_dir = os.path.join(self.workdir, f"store{self.rep}")
        entry = self._timed("save", lambda: ModelStore(self.store_dir).save(self.model))
        self.key = entry.key
        self.artifact_mib = sum(
            os.path.getsize(os.path.join(self.store_dir, f))
            for f in os.listdir(self.store_dir)
        ) / 2**20
        self._timed("ready", self._start_server)
        self._encode_requests()
        self.rep += 1

    def _start_server(self) -> None:
        ready = os.path.join(self.workdir, f"ready{self.rep}")
        log = open(os.path.join(self.workdir, f"server{self.rep}.log"), "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        with log:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--store", self.store_dir, "--port", "0",
                    "--ready-file", ready,
                ],
                cwd=self.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + SERVER_TIMEOUT
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.server.returncode} before "
                    "it was ready"
                )
            try:
                with open(ready, encoding="utf-8") as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                self.address = (host, int(port))
                return
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become ready in time")
            time.sleep(0.005)

    def _request(self, path: str, payload: dict) -> bytes:
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.address[0]}:{self.address[1]}"
            f"\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode() + body

    def _encode_requests(self) -> None:
        self.predict_requests = [
            self._request("/predict", {"model": self.key, "attribute": name})
            for name in self.names
        ]
        self.align_requests = [
            self._request(
                "/align", {"model": self.key, "objectives": [row.tolist()]}
            )
            for row in self.align_objectives
        ]

    def request_for(self, seq: int) -> tuple[str, int, bytes]:
        group, slot = divmod(seq, GROUP)
        if slot == GROUP - 1:
            index = group % len(self.align_requests)
            return "align", index, self.align_requests[index]
        index = (group * (GROUP - 1) + slot) % len(self.predict_requests)
        return "predict", index, self.predict_requests[index]

    def environment(self) -> dict[str, object]:
        """Thread count and pinned variables of the running server."""
        assert self.server is not None
        with open(f"/proc/{self.server.pid}/environ", "rb") as handle:
            env = dict(
                item.decode().split("=", 1)
                for item in handle.read().split(b"\0")
                if b"=" in item
            )
        return {
            "server": {
                "threads": envinfo.thread_count(self.server.pid),
                "pinned_env": {key: env.get(key) for key in envinfo.PINNED_ENV},
            }
        }

    def peak_pid(self) -> int:
        assert self.server is not None
        return self.server.pid

    async def _disconnect(self) -> None:
        for _, writer in self.conns:
            writer.close()
            await writer.wait_closed()
        self.conns = []

    def close(self) -> None:
        if self.conns:
            self.loop.run_until_complete(self._disconnect())
        if self.server is None:
            return
        server, self.server = self.server, None
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=SERVER_TIMEOUT / 3)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    def shutdown(self) -> None:
        self.close()
        self.loop.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- load -------------------------------------------------------------
    async def _connect(self) -> None:
        if not self.conns:
            self.conns = [
                await asyncio.open_connection(*self.address)
                for _ in range(CONNECTIONS)
            ]

    async def _exchange(self, conn, data: bytes) -> tuple[int, bytes]:
        reader, writer = conn
        writer.write(data)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await reader.readexactly(length)

    async def _get_json(self, path: str) -> dict:
        data = (
            f"GET {path} HTTP/1.1\r\nHost: {self.address[0]}:{self.address[1]}"
            "\r\n\r\n"
        ).encode()
        status, body = await self._exchange(self.conns[0], data)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    async def _load(self, seq_iter, stop, records, kept, rec, factor=1.0) -> None:
        in_flight = asyncio.Lock()

        async def client(conn):
            while not stop():
                seq = next(seq_iter)
                kind, index, data = self.request_for(seq)
                async with in_flight:
                    start = time.perf_counter()
                    status, body = await self._exchange(conn, data)
                    end = time.perf_counter()
                traced = rec is not None and (seq // TRACE_BLOCK) % 2 == 1
                if traced:
                    rec.add(f"serve.{kind}", start, end, f"r{seq}")
                records.append(
                    Exchange(seq, kind, index, status, end - start, traced, factor)
                )
                if (seq // GROUP) % 5 == 0:
                    kept.append((seq, kind, index, body))

        await self._connect()
        await asyncio.gather(*(client(conn) for conn in self.conns))

    def _check_records(self, records, kept) -> None:
        """Every response 200, every kept body equal to the offline row."""
        for r in records:
            self.attempted += 1
            if r.status != 200:
                self.record_failure(f"request {r.seq} ({r.kind}) answered {r.status}")
        align_rows = self.offline_align_rows()
        for seq, kind, index, body in kept:
            expected = self.offline[index] if kind == "predict" else align_rows[index]
            try:
                rows = np.asarray(json.loads(body)["predictions"], dtype=float)
                if rows.shape != (1, expected.shape[0]) or not np.array_equal(
                    rows[0], expected
                ):
                    raise CheckFailed(f"request {seq} ({kind}) differs from offline")
                checks.finite_nonnegative(rows)
            except (CheckFailed, KeyError, ValueError) as exc:
                self.record_failure(f"check failed: {exc}")

    def offline_align_rows(self) -> np.ndarray:
        """What the server must answer to each ``/align`` payload."""
        if self._align_rows is None:
            self._align_rows = np.vstack(
                [
                    BatchAligner().fit(self.stack, row[np.newaxis, :]).predict()[0]
                    for row in self.align_objectives
                ]
            )
        return self._align_rows

    def warmup(self) -> None:
        records, kept = [], []
        seq = itertools.count()
        done = lambda: len(records) >= WARMUP_REQUESTS  # noqa: E731
        self.loop.run_until_complete(self._load(seq, done, records, kept, None))
        self.seq = seq
        self._check_records(records, kept)

    def measure(self, seconds: float, rec: SpanRecorder | None) -> dict:
        """Closed-loop load in slices, each after a calibration kernel."""
        calibrator = Calibrator()
        records, kept = [], []
        before = self.loop.run_until_complete(self._get_json("/metrics"))
        busy = scaled = 0.0
        while busy < seconds:
            factor = calibrator.factor()
            start = time.perf_counter()
            deadline = start + min(SLICE_S, seconds - busy)
            self.loop.run_until_complete(
                self._load(
                    self.seq,
                    lambda: time.perf_counter() >= deadline,
                    records,
                    kept,
                    rec,
                    factor,
                )
            )
            elapsed = time.perf_counter() - start
            busy += elapsed
            scaled += elapsed * factor
        after = self.loop.run_until_complete(self._get_json("/metrics"))
        self._check_records(records, kept)
        # Kept responses equal the offline rows bit for bit, so the
        # accuracy of everything served is that of the offline rows.
        self.nrmse_mean = float(
            np.concatenate(
                [
                    checks.nrmse(self.offline, self.truth),
                    checks.nrmse(self.offline_align_rows(), self.align_truth),
                ]
            ).mean()
        )
        return {
            "records": records,
            "wall": busy,
            "scaled": scaled,
            "calibration_s": calibrator.samples,
            "server": {
                path: self._server_delta(before, after, path)
                for path in ("/predict", "/align")
            },
        }

    @staticmethod
    def _server_delta(before: dict, after: dict, path: str) -> tuple[float, float]:
        """(requests, server seconds) for one endpoint over the timed phase."""
        def totals(snapshot):
            block = snapshot["latency"].get(path, {"count": 0.0})
            count = float(block["count"])
            return count, count * float(block.get("mean_seconds", 0.0))

        (c0, s0), (c1, s1) = totals(before), totals(after)
        return c1 - c0, s1 - s0

    # -- metrics ----------------------------------------------------------
    @staticmethod
    def _rtts(samples, traced=False, kind=None, scaled=True) -> list[float]:
        """Round trips (reference-host seconds unless ``scaled=False``)."""
        return [
            r.rtt * r.factor if scaled else r.rtt
            for r in samples["records"]
            if (traced is None or r.traced == traced) and (kind is None or r.kind == kind)
        ]

    def end_to_end(self, samples: dict, peak_mib: float) -> dict[str, float]:
        records = sorted(samples["records"], key=lambda r: r.rtt * r.factor)
        kinds = [r.kind for r in records]
        rtts = [r.rtt * r.factor for r in records]
        if not _percentile_window_ok(kinds, 50.0, "predict"):
            self.record_failure("op_p50_s sits at the /predict-/align boundary")
        if not _percentile_window_ok(kinds, 90.0, "align"):
            self.record_failure("op_p90_s sits at the /predict-/align boundary")
        ok = sum(1 for r in records if r.status == 200)
        return {
            "attrs_per_s": ok / samples["scaled"],
            "op_p50_s": median(rtts),
            "op_p90_s": percentile(rtts, 90),
            "peak_rss_mib": peak_mib,
            "nrmse_mean": self.nrmse_mean,
        }

    def per_layer(self, samples: dict, rec: SpanRecorder) -> dict[str, float]:
        server = samples["server"]
        count = sum(c for c, _ in server.values())
        server_s = sum(s for _, s in server.values()) / count
        model_load = []
        for _ in range(3):
            start = time.perf_counter()
            ModelStore(self.store_dir).load(self.key)
            model_load.append(time.perf_counter() - start)
        predict_payload = {
            "model": self.key,
            "attributes": [self.names[0]],
            "n_targets": int(self.offline.shape[1]),
            "predictions": [self.offline[0].tolist()],
        }
        encode = []
        for _ in range(20):
            start = time.perf_counter()
            encode_response(200, predict_payload, True)
            encode.append(time.perf_counter() - start)
        align_model = BatchAligner().fit(self.stack, self.align_objectives[:1])
        layers = {
            "synth.build_s": median(self.synth_s),
            "stack.build_s": median(self.timings["stack"]),
            "batch.fit_s": median(self.timings["fit"]),
            "batch.predict_s": median(self.timings["predict"]),
            "store.save_s": median(self.timings["save"]),
            "store.load_s": median(model_load),
            "store.artifact_mib": self.artifact_mib,
            "serve.ready_s": median(self.timings["ready"]),
            "serve.predict_rtt_p50_s": median(
                self._rtts(samples, True, "predict", scaled=False)
            ),
            "serve.align_rtt_p50_s": median(
                self._rtts(samples, True, "align", scaled=False)
            ),
            "serve.server_s": server_s,
            "serve.predict_server_s": server["/predict"][1] / server["/predict"][0],
            "serve.align_server_s": server["/align"][1] / server["/align"][0],
            "serve.wait_s": float(np.mean(self._rtts(samples, None, scaled=False)))
            - server_s,
            "serve.encode_s": median(encode),
            "bench.trace_overhead": median(self._rtts(samples, True))
            / median(self._rtts(samples, False)),
        }
        layers.update(stack_layers(self.stack))
        layers.update(
            solver_layers(self.model.solver_results_, self.stack.gram, self.model.masks_)
        )
        layers.update(
            kernel_layers(
                rec,
                self.stack,
                align_model.weights_,
                self.align_objectives[:1],
                self.offline_align_rows()[:1],
            )
        )
        return layers

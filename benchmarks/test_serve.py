"""Serving load harness: sustained predict throughput + tail latency.

One :class:`~repro.serve.AlignmentServer` holds a warm 32-attribute
model (banded sparse universe from
:func:`repro.synth.bigalign.build_big_universe`); 16 keep-alive
:class:`~repro.serve.ServeClient` tasks on the same loop fire
single-attribute ``/predict`` requests flat out, timing every round
trip client-side (framing + JSON + server dispatch, the full cost a
caller pays).

The throughput floor (:data:`RPS_FLOOR`, 1000 req/s; tunable via
``REPRO_SERVE_RPS_FLOOR`` for slow CI runners) is asserted here, and
sampled responses must equal the offline :class:`BatchAligner` output
exactly -- JSON's shortest-roundtrip float repr makes the wire
bit-transparent, so "close" would already be a bug.  The measured rate,
the burst's wall time and the p50/p95/p99 round trips go to the printed
report; ``BENCH_serve.json`` records the workload's inputs and the
served model's health verdicts for the regression gate.  perfbench's
``serve`` workload owns serving wall time.
"""

import asyncio
import os
import time

import numpy as np

from repro.core.batch import BatchAligner
from repro.experiments.reporting import save_bench_json
from repro.obs import Trace, evaluate_health
from repro.serve import AlignmentServer, ServeClient, encode_response
from repro.synth.bigalign import build_big_universe

#: Full-scale universe (scaled down by ``REPRO_BENCH_SCALE``).  Kept
#: serving-sized: a predict answer is one attribute row, so n_targets
#: bounds the response body (~20 bytes/float on the wire).
FULL_SOURCES = 2_000
FULL_TARGETS = 500

N_ATTRIBUTES = 32
N_CLIENTS = 16
REQUESTS_PER_CLIENT = 150

#: Acceptance floor from the issue: a warm stack must sustain at least
#: this many predict requests per second on one loop thread.
RPS_FLOOR = float(os.environ.get("REPRO_SERVE_RPS_FLOOR", "1000"))


def _sized(bench_scale):
    n_sources = max(int(FULL_SOURCES * bench_scale), 200)
    n_targets = max(int(FULL_TARGETS * bench_scale), 60)
    return n_sources, n_targets


async def _load_run(server, key, attribute_names):
    """The burst: N clients x M keep-alive predicts, timed per request.

    Returns ``(latencies, sampled)`` where ``sampled`` maps attribute
    name to one served prediction row (verified against offline
    output by the caller).
    """
    sampled = {}

    async def client_task(client_id):
        latencies = []
        async with ServeClient(server.host, server.port) as client:
            for i in range(REQUESTS_PER_CLIENT):
                name = attribute_names[
                    (client_id + i) % len(attribute_names)
                ]
                started = time.perf_counter()
                status, payload = await client.request(
                    "POST", "/predict", {"model": key, "attribute": name}
                )
                latencies.append(time.perf_counter() - started)
                assert status == 200, payload
                if i == REQUESTS_PER_CLIENT - 1:
                    sampled[name] = payload["predictions"][0]
        return latencies

    per_client = await asyncio.gather(
        *(client_task(c) for c in range(N_CLIENTS))
    )
    return [lat for one in per_client for lat in one], sampled


def test_serve_predict_throughput(benchmark, bench_scale, report):
    """>= RPS_FLOOR predict/s sustained; served bits == offline bits."""
    n_sources, n_targets = _sized(bench_scale)
    references, objectives = build_big_universe(
        n_sources, n_targets, n_attributes=N_ATTRIBUTES
    )
    fit_start = time.perf_counter()
    model = BatchAligner().fit(references, objectives)
    fit_seconds = time.perf_counter() - fit_start
    offline = model.predict()
    names = list(model.attribute_names_)
    index_of = {name: i for i, name in enumerate(names)}

    async def main():
        server = AlignmentServer()
        key = server.add_model(model)
        await server.start()
        try:
            # One warm-up lap keeps connection setup jitter out of the
            # measured burst.
            async with ServeClient(server.host, server.port) as client:
                for name in names[:4]:
                    await client.request(
                        "POST", "/predict", {"model": key, "attribute": name}
                    )
            wall_start = time.perf_counter()
            latencies, sampled = await _load_run(server, key, names)
            wall = time.perf_counter() - wall_start
            snapshot = server.metrics.snapshot()
        finally:
            await server.shutdown()
        return wall, latencies, sampled, snapshot

    wall_seconds, latencies, sampled, snapshot = asyncio.run(main())

    total = N_CLIENTS * REQUESTS_PER_CLIENT
    assert len(latencies) == total
    rps = total / wall_seconds
    p50, p95, p99 = np.percentile(latencies, (50.0, 95.0, 99.0))

    # Served output is the offline output, to the last bit (1e-12 would
    # already be too lax: nothing on the path may perturb a float).
    assert len(sampled) >= min(N_CLIENTS, len(names))
    for name, row in sampled.items():
        assert (np.asarray(row) == offline[index_of[name]]).all()

    assert rps >= RPS_FLOOR, (
        f"sustained only {rps:.0f} predict/s; the acceptance floor is "
        f"{RPS_FLOOR:.0f} (set REPRO_SERVE_RPS_FLOOR for slow runners)"
    )
    server_counters = snapshot["counters"]
    assert server_counters.get("errors_total", 0.0) == 0.0

    report(
        f"serving: {total:,} predicts over {N_CLIENTS} keep-alive "
        f"clients, {n_sources:,} x {n_targets:,} x {N_ATTRIBUTES} attrs\n"
        f"  {rps:,.0f} req/s (floor {RPS_FLOOR:,.0f}), "
        f"wall={wall_seconds:.2f}s fit={fit_seconds:.2f}s\n"
        f"  latency p50={p50 * 1e3:.2f}ms p95={p95 * 1e3:.2f}ms "
        f"p99={p99 * 1e3:.2f}ms"
    )

    health = evaluate_health(Trace("bench-serve"), model=model).verdicts()
    assert "fail" not in health.values()
    save_bench_json(
        "serve",
        {},
        meta={
            "rps_floor": RPS_FLOOR,
            "n_requests": total,
            "n_clients": N_CLIENTS,
            "n_sources": n_sources,
            "n_targets": n_targets,
            "n_attributes": N_ATTRIBUTES,
            "scale": bench_scale,
        },
        health=health,
    )

    # Microbench the response-encoding hot path (the dominant per-
    # request server cost once predictions are precomputed).
    payload = {
        "model": "bench",
        "attributes": [names[0]],
        "n_targets": n_targets,
        "predictions": [offline[0].tolist()],
    }
    benchmark(lambda: encode_response(200, payload, keep_alive=True))

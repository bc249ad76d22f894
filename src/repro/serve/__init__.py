"""Alignment-as-a-service: a stdlib-asyncio HTTP/JSON serving layer.

``repro.serve`` turns fitted alignment models into a long-running
service: an :class:`AlignmentServer` holds warm
:class:`~repro.core.batch.BatchAligner` models (loaded from a
:class:`~repro.store.ModelStore` or registered in-process, target
predictions precomputed) and answers ``/predict``, ``/align``,
``/disaggregate``, ``/healthz`` and ``/metrics`` over plain HTTP/1.1
with keep-alive -- no web framework, no extra dependencies, one event
loop.

Every request runs under a ``serve.request`` obs span parented to the
server's root trace, failures come back as the documented JSON error
envelope (``{"error": {"code": ..., "message": ...}}``), and shutdown
drains in-flight requests before closing transports.  The paired
:class:`ServeClient` is the keep-alive test/bench transport, and the
``geoalign-repro serve`` CLI is the operational entry point.  See
``docs/serving.md`` for the endpoint and envelope reference.
"""

from repro.serve.client import ServeClient
from repro.serve.http import (
    REQUEST_HEADER_LIMIT,
    STATUS_PHRASES,
    HttpRequest,
    RawJSON,
    encode_response,
    read_request,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.sampler import Exemplar, TailSampler
from repro.serve.server import AlignmentServer, ServingModel

__all__ = [
    "AlignmentServer",
    "Exemplar",
    "HttpRequest",
    "REQUEST_HEADER_LIMIT",
    "RawJSON",
    "STATUS_PHRASES",
    "ServeClient",
    "ServerMetrics",
    "ServingModel",
    "TailSampler",
    "encode_response",
    "read_request",
]

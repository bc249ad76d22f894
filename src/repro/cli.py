"""Command-line interface: regenerate any paper figure from a shell.

``geoalign-repro`` (or ``python -m repro.cli``) exposes one subcommand
per evaluation artefact, so the experiments are reproducible without
pytest::

    geoalign-repro fig5a --scale 0.25
    geoalign-repro fig6 --trials 10
    geoalign-repro fig7 --replicates 20 --scale 1.0
    geoalign-repro fig8
    geoalign-repro all --scale 0.25 --out results/

``align`` runs the multi-attribute alignment workload (every dataset of
a world against the rest) through the batched engine -- or, with
``--shards N``, the sharded map-reduce engine::

    geoalign-repro align --universe ny --scale 0.25
    geoalign-repro align --shards 4 --shard-workers 4

Scale 1.0 (the default) is paper scale: 30,238 zip units at the top
rung.  Reports print to stdout and, with ``--out``, are also written as
text files.

Every figure/align subcommand also accepts observability flags (see
``docs/observability.md``)::

    geoalign-repro align --trace run.jsonl    # JSON-lines span/event trace
    geoalign-repro fig5a --profile            # text profile tree on stdout
    geoalign-repro fig5a --mem                # tracemalloc peak (opt-in)

``serve`` and the ``store`` family accept ``--trace``/``--profile``
too (the server opens a recording session only when asked, so a
long-running serve does not accumulate spans unbounded), and the
``obs`` family analyses what any of them produced -- a run's durable
record is its trace file::

    geoalign-repro obs report run.jsonl       # health verdicts (exit 1 on fail)
    geoalign-repro obs tail 127.0.0.1:8732    # live error/slow-tail exemplars
    geoalign-repro obs prom run.jsonl         # counters/gauges as Prometheus text

The project's numerical-correctness linter is exposed as a subcommand
too (see ``docs/static-analysis.md``)::

    geoalign-repro lint src
    geoalign-repro lint src --format json
    geoalign-repro lint --list-rules

Fitted models persist to, and serve from, the model store (see
``docs/serving.md``)::

    geoalign-repro store save --universe ny --scale 0.25
    geoalign-repro store list
    geoalign-repro store load 3f2a
    geoalign-repro serve --port 8732            # all stored models
    geoalign-repro serve --model 3f2a --shutdown-after 60
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from repro import obs
from repro.errors import ReproError, ValidationError

from repro.experiments.effectiveness import run_figure5a, run_figure5b
from repro.experiments.noise import PAPER_NOISE_LEVELS, run_noise_robustness
from repro.experiments.reference_selection import run_reference_selection
from repro.experiments.scalability import run_scalability


def _add_common(parser):
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="world scale in (0, 1]; 1.0 = paper scale (default)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the world seed"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write the report into DIR as <figure>.txt",
    )
    _add_obs_flags(parser)
    parser.add_argument(
        "--mem",
        action="store_true",
        help="measure the tracemalloc allocation peak (opt-in: slows "
        "allocation-heavy runs)",
    )


def _add_obs_flags(parser):
    """The trace/profile pair shared by every workload subcommand.

    Figure/align commands get these via :func:`_add_common`; ``serve``
    and the ``store`` family attach just this pair (no ``--mem``: a
    tracemalloc peak does not map onto a long-running server).
    """
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        dest="trace",
        help="write a JSON-lines span/event trace of the run to FILE",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-span wall-time summary tree after the run",
    )


def build_parser():
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="geoalign-repro",
        description="Regenerate the GeoAlign (EDBT 2018) evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("fig5a", "effectiveness, New York State (8 datasets)"),
        ("fig5b", "effectiveness, United States (10 datasets)"),
        ("fig6", "runtime scalability over the six-universe ladder"),
        ("fig7", "robustness to noisy reference source vectors"),
        ("fig8", "robustness to reference selection (leave-n-out)"),
        ("all", "run every figure in sequence"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        _add_common(cmd)
        if name in ("fig6", "all"):
            cmd.add_argument(
                "--trials",
                type=int,
                default=10,
                help="runtime trials per fold (paper: 10)",
            )
        if name in ("fig7", "all"):
            cmd.add_argument(
                "--replicates",
                type=int,
                default=20,
                help="noise replicates per level (paper: 20)",
            )

    align = sub.add_parser(
        "align",
        help="multi-attribute alignment via the batched engine",
    )
    _add_common(align)
    align.add_argument(
        "--universe",
        choices=("ny", "us"),
        default="ny",
        help="dataset pool: New York (default) or United States",
    )
    align.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help=(
            "partition the universe into N boundary-owned shards and run "
            "the map-reduce engine (engine='sharded'); 0 (default) keeps "
            "the monolithic batch engine"
        ),
    )
    align.add_argument(
        "--shard-strategy",
        choices=("tile", "block"),
        default="tile",
        help="shard partitioning: target-column tiles (default) or "
        "contiguous source-row blocks",
    )
    align.add_argument(
        "--shard-workers",
        type=int,
        default=1,
        metavar="W",
        help="process-pool width for the shard map phases (1 = inline)",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="analyse recorded traces and live servers: health reports, "
        "Prometheus text, request exemplars",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    report = obs_sub.add_parser(
        "report",
        help="evaluate the numerical-health monitors over a trace file",
    )
    report.add_argument(
        "trace_file", metavar="FILE", help="trace JSONL written by --trace"
    )
    report.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        dest="json_out",
        help="also write the report(s) as JSON to OUT (one object per "
        "line; feeds check_regression.py --health)",
    )

    tail = obs_sub.add_parser(
        "tail",
        help="fetch a running server's tail-sampled request exemplars "
        "(/debug/exemplars) and print their span trees",
    )
    tail.add_argument(
        "address",
        metavar="HOST:PORT",
        help="server address, e.g. 127.0.0.1:8732",
    )
    tail.add_argument(
        "-n",
        type=int,
        default=10,
        dest="count",
        help="how many exemplars to show, newest first (default: 10)",
    )
    tail.add_argument(
        "--json",
        action="store_true",
        dest="json_out",
        help="print the raw /debug/exemplars JSON instead of text",
    )

    prom = obs_sub.add_parser(
        "prom",
        help="render a trace file's counters and gauges as Prometheus "
        "0.0.4 exposition text",
    )
    prom.add_argument(
        "trace_file", metavar="FILE", help="trace JSONL written by --trace"
    )

    lint = sub.add_parser(
        "lint",
        help="run repro-lint, the numerical-correctness static analysis",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (e.g. 'src')",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    store_cmd = sub.add_parser(
        "store",
        help="save, list, and load fitted models in the model store",
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)

    def _add_store_root(cmd):
        cmd.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="store directory (default: $REPRO_STORE or "
            ".geoalign/store)",
        )
        _add_obs_flags(cmd)

    save = store_sub.add_parser(
        "save",
        help="fit the leave-one-dataset-out batch model for a universe "
        "and persist it",
    )
    _add_store_root(save)
    save.add_argument(
        "--universe",
        choices=("ny", "us"),
        default="ny",
        help="dataset pool: New York (default) or United States",
    )
    save.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="world scale in (0, 1]; 1.0 = paper scale (default)",
    )
    save.add_argument(
        "--seed", type=int, default=None, help="override the world seed"
    )

    load = store_sub.add_parser(
        "load",
        help="verify one stored model loads and predicts",
    )
    _add_store_root(load)
    load.add_argument(
        "key", metavar="KEY", help="artifact key (prefix works)"
    )

    store_list = store_sub.add_parser(
        "list", help="list the stored models"
    )
    _add_store_root(store_list)
    store_list.add_argument(
        "--porcelain",
        action="store_true",
        help="print bare keys, one per line (for scripts)",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="serve stored models over HTTP/JSON (predict/align/"
        "disaggregate)",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: "
        "127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8732,
        help="bind port; 0 picks an ephemeral port (default: 8732)",
    )
    serve_cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="model store to load from (default: $REPRO_STORE or "
        ".geoalign/store)",
    )
    serve_cmd.add_argument(
        "--model",
        action="append",
        default=None,
        metavar="KEY",
        help="key prefix to load (repeatable; default: every stored "
        "model)",
    )
    serve_cmd.add_argument(
        "--max-body-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="largest accepted request body (default: 8 MiB)",
    )
    serve_cmd.add_argument(
        "--ready-file",
        default=None,
        metavar="FILE",
        help="write '<host> <port>' to FILE once listening (lets "
        "scripts find an ephemeral port)",
    )
    serve_cmd.add_argument(
        "--shutdown-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="drain and exit after SECONDS (for smoke tests/CI)",
    )
    _add_obs_flags(serve_cmd)
    return parser


def _seed_kwargs(args):
    return {} if args.seed is None else {"seed": args.seed}


def _run_figure(name, args):
    """Dispatch one figure run; returns its report text."""
    if name == "fig5a":
        return run_figure5a(scale=args.scale, **_seed_kwargs(args)).to_text()
    if name == "fig5b":
        return run_figure5b(scale=args.scale, **_seed_kwargs(args)).to_text()
    if name == "fig6":
        return run_scalability(
            scale=args.scale, trials=args.trials, **_seed_kwargs(args)
        ).to_text()
    if name == "fig7":
        return run_noise_robustness(
            scale=args.scale,
            levels=PAPER_NOISE_LEVELS,
            replicates=args.replicates,
            **_seed_kwargs(args),
        ).to_text()
    if name == "fig8":
        return run_reference_selection(
            scale=args.scale, **_seed_kwargs(args)
        ).to_text()
    if name == "align":
        from repro.experiments.align import run_alignment

        return run_alignment(
            scale=args.scale,
            universe=args.universe,
            n_shards=args.shards,
            shard_strategy=args.shard_strategy,
            shard_workers=args.shard_workers,
            **_seed_kwargs(args),
        ).to_text()
    raise ValueError(f"unknown figure {name!r}")


def _emit(name, text, out_dir, stream):
    print(text, file=stream)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text.rstrip() + "\n")
        print(f"[written {path}]", file=stream)


def _run_lint(args, stream):
    """Run ``repro-lint``; exit code 0 clean, 1 violations, 2 bad input."""
    from repro.analysis import all_rules, lint_paths, render

    if args.list_rules:
        for rule_id, rule_cls in sorted(all_rules().items()):
            print(f"{rule_id:24s} {rule_cls.summary}", file=stream)
        return 0
    if not args.paths:
        print("error: no paths given (try 'lint src')", file=sys.stderr)
        return 2
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        violations = lint_paths(args.paths, select=select)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(violations, args.fmt), file=stream)
    return 1 if violations else 0


@contextlib.contextmanager
def _observed_session(name, args, stream, always=False, **attrs):
    """An obs recording session gated on the ``--trace``/``--profile``
    flags, exporting/printing on clean exit.

    Yields ``None`` (and records nothing) when neither flag was given
    and ``always`` is false -- the server/store paths must not pay for,
    or grow, a span list nobody asked for.  With ``always=True`` the
    session is opened regardless (``store save`` needs one to evaluate
    model health) but the trace file and profile tree still appear only
    on request.
    """
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    if not (always or trace_path or profile):
        yield None
        return
    with obs.trace(name, **attrs) as session:
        yield session
    if trace_path:
        obs.write_trace_jsonl(session, trace_path)
        print(f"[trace written {trace_path}]", file=stream)
    if profile:
        print(obs.format_profile(session), file=stream)


def _fit_world_model(universe, scale, seed):
    """The leave-one-dataset-out batch model for one universe.

    Mirrors the ``align`` workload's batch fold: one shared stack over
    every dataset, one attribute row per dataset, each row's mask
    excluding the dataset itself.  This is the model ``store save``
    persists and ``serve`` answers queries from.
    """
    import numpy as np

    from repro.core.batch import BatchAligner, ReferenceStack
    from repro.experiments.align import _UNIVERSES

    builder, default_seed = _UNIVERSES[universe]
    world = builder(scale, default_seed if seed is None else seed)
    datasets = world.references()
    names = [dataset.name for dataset in datasets]
    objectives = np.vstack([d.source_vector for d in datasets])
    masks = ~np.eye(len(datasets), dtype=bool)
    stack = ReferenceStack.build(datasets)
    return BatchAligner().fit(
        stack, objectives, attribute_names=names, masks=masks
    )


def _run_store(args, stream):
    """The ``store`` family; exit 0 ok, 2 on any store/input error."""
    from repro.store import ModelStore

    store = ModelStore(args.store)
    try:
        if args.store_command == "save":
            with _observed_session(
                f"store-save.{args.universe}",
                args,
                stream,
                always=True,
                scale=args.scale,
            ) as session:
                model = _fit_world_model(
                    args.universe, args.scale, args.seed
                )
            # Evaluated on the closed session: until it closes, its root
            # span counts 0 s and trace_coverage would read fail.
            health = obs.evaluate_health(session, model=model).verdicts()
            entry = store.save(
                model,
                health=health,
                meta={
                    "universe": args.universe,
                    "scale": args.scale,
                    "seed": args.seed,
                },
            )
            print(entry.summary_line(), file=stream)
            print(
                f"[stored {entry.fingerprint} in {store.root}]",
                file=stream,
            )
            return 0
        if args.store_command == "load":
            with _observed_session(f"store-load.{args.key}", args, stream):
                model, entry = store.load(args.key)
                predictions = model.predict()
            print(entry.summary_line(), file=stream)
            print(
                f"[loaded {entry.key}: predictions "
                f"{predictions.shape[0]} x {predictions.shape[1]} ok]",
                file=stream,
            )
            return 0
        if args.store_command == "list":
            with _observed_session("store-list", args, stream):
                if args.porcelain:
                    for key in store.keys():
                        print(key, file=stream)
                else:
                    print(store.to_text(), file=stream)
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise ValueError(f"unknown store subcommand {args.store_command!r}")


async def _serve_async(server, args, stream):
    """Start, announce readiness, and block until a stop signal."""
    import asyncio
    import signal

    host, port = await server.start()
    print(
        f"[serving {len(server.models)} model(s) on {host}:{port}]",
        file=stream,
    )
    for key in sorted(server.models):
        print(f"  model {key}", file=stream)
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # pragma: no cover - non-posix loops
    if args.shutdown_after is not None:
        loop.call_later(args.shutdown_after, stop.set)
    await stop.wait()
    print("[draining in-flight requests ...]", file=stream)
    await server.shutdown()
    print(
        f"[served {server.metrics.counter('requests_total'):.0f} "
        "request(s); bye]",
        file=stream,
    )


def _run_serve(args, stream):
    """The ``serve`` subcommand; exit 0 clean stop, 2 on setup error."""
    import asyncio

    from repro.serve import AlignmentServer
    from repro.store import ModelStore

    store = ModelStore(args.store)
    server = AlignmentServer(
        store=store,
        host=args.host,
        port=args.port,
        max_body_bytes=args.max_body_bytes,
    )
    try:
        if args.model:
            for prefix in args.model:
                server.load_from_store(prefix)
        else:
            server.load_all_from_store()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not server.models:
        print(
            f"warning: no models in {store.root}; serving /healthz and "
            "/metrics only (run 'geoalign-repro store save' first)",
            file=sys.stderr,
        )
    try:
        # The session is opened only on request: an unconditional trace
        # on a long-running server would accumulate spans without bound.
        # When absent, per-request exemplar tracing still runs -- the
        # tail sampler owns its own throwaway sessions.
        with _observed_session("serve", args, stream):
            asyncio.run(_serve_async(server, args, stream))
    except KeyboardInterrupt:  # pragma: no cover - signal race
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _parse_address(address):
    """``HOST:PORT`` split with validation (exit-2 errors on bad input)."""
    host, sep, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not sep or not host or not 0 < port < 65536:
        raise ValidationError(
            f"address must look like HOST:PORT, got {address!r}"
        )
    return host, port


def _fetch_exemplars(host, port):
    """One GET /debug/exemplars over a short-lived ServeClient."""
    import asyncio

    from repro.serve import ServeClient

    async def _go():
        async with ServeClient(host, port) as client:
            return await client.request("GET", "/debug/exemplars")

    return asyncio.run(_go())


def _format_exemplar(exemplar):
    """One retained request as an indented span-tree text block."""
    header = (
        f"exemplar {exemplar.get('id')}  "
        f"{exemplar.get('method')} {exemplar.get('endpoint')}  "
        f"status={exemplar.get('status')}  "
        f"{float(exemplar.get('seconds') or 0.0) * 1000.0:.2f} ms  "
        f"reason={exemplar.get('reason')}"
    )
    p99 = exemplar.get("p99_seconds")
    if isinstance(p99, (int, float)):
        header += f"  (p99 {float(p99) * 1000.0:.2f} ms)"
    lines = [header]
    records = [
        record
        for record in (exemplar.get("records") or [])
        if isinstance(record, dict)
    ]
    spans = [record for record in records if record.get("type") == "span"]
    known = {span.get("id") for span in spans}
    children = {}
    for span in spans:
        parent = span.get("parent")
        # A span whose parent lives outside this per-request session
        # (e.g. the server's own root trace) renders as a local root.
        key = parent if parent in known else None
        children.setdefault(key, []).append(span)

    def _walk(parent, depth):
        ordered = sorted(
            children.get(parent, ()),
            key=lambda span: (span.get("t0", 0.0), span.get("id", 0)),
        )
        for span in ordered:
            status = span.get("status", "ok")
            mark = "" if status == "ok" else f"  [{status}]"
            lines.append(
                f"{'  ' * depth}{span.get('name')}  "
                f"{float(span.get('seconds') or 0.0) * 1000.0:.3f} ms"
                f"{mark}"
            )
            _walk(span.get("id"), depth + 1)

    _walk(None, 1)
    for record in records:
        if record.get("type") == "event":
            lines.append(
                f"  event {record.get('name')} {record.get('fields') or {}}"
            )
    return "\n".join(lines)


def _trace_prometheus_text(sessions):
    """Recorded sessions' counters/gauges as Prometheus 0.0.4 text.

    The CLI side of the shared :mod:`repro.obs.promfmt` encoder: the
    exact renderer behind the server's ``/metrics``, pointed at offline
    trace files so recorded runs can feed the same scrape tooling.
    Samples are labelled by session name (``all`` runs append several
    sessions to one file).
    """
    from repro.obs.promfmt import (
        MetricFamily,
        render_prometheus_text,
        sanitize_metric_name,
    )

    wall = MetricFamily(
        name="geoalign_trace_wall_seconds",
        kind="gauge",
        help="Recorded session wall-clock seconds.",
    )
    counter_families = {}
    gauge_families = {}
    for session in sessions:
        labels = (("trace", session.name),)
        wall.add(session.wall_seconds, labels)
        for name in sorted(session.counters):
            family = counter_families.get(name)
            if family is None:
                family = counter_families[name] = MetricFamily(
                    name=sanitize_metric_name(f"geoalign_trace_{name}"),
                    kind="counter",
                    help=f"Trace counter {name}.",
                )
            family.add(session.counters[name], labels)
        for name in sorted(session.gauges):
            family = gauge_families.get(name)
            if family is None:
                family = gauge_families[name] = MetricFamily(
                    name=sanitize_metric_name(f"geoalign_trace_{name}"),
                    kind="gauge",
                    help=f"Trace gauge {name}.",
                )
            family.add(session.gauges[name], labels)
    families = [wall]
    families.extend(
        counter_families[name] for name in sorted(counter_families)
    )
    families.extend(gauge_families[name] for name in sorted(gauge_families))
    return render_prometheus_text(families)


def _run_obs(args, stream):
    """The ``obs`` analysis family; exit 0 healthy, 1 fail verdicts, 2 bad input."""
    try:
        if args.obs_command == "report":
            failed = False
            reports = []
            for session in obs.read_trace_jsonl(args.trace_file):
                report = obs.evaluate_health(session)
                print(report.to_text(), file=stream)
                reports.append(report)
                failed = failed or not report.ok
            if args.json_out:
                with open(args.json_out, "w") as handle:
                    for report in reports:
                        handle.write(
                            json.dumps(report.to_dict(), sort_keys=True)
                            + "\n"
                        )
                print(f"[health json written {args.json_out}]", file=stream)
            return 1 if failed else 0
        if args.obs_command == "tail":
            host, port = _parse_address(args.address)
            status, payload = _fetch_exemplars(host, port)
            if status != 200:
                print(
                    f"error: /debug/exemplars returned {status}: {payload}",
                    file=sys.stderr,
                )
                return 2
            if args.json_out:
                print(
                    json.dumps(payload, indent=2, sort_keys=True),
                    file=stream,
                )
                return 0
            stats = payload.get("stats") or {}
            exemplars = payload.get("exemplars") or []
            print(
                f"[{args.address}: "
                f"{stats.get('sampled_total', 0.0):.0f} sampled, "
                f"{stats.get('retained', 0.0):.0f} retained "
                f"({stats.get('retained_errors', 0.0):.0f} error, "
                f"{stats.get('retained_slow', 0.0):.0f} slow)]",
                file=stream,
            )
            for exemplar in exemplars[: args.count]:
                print(_format_exemplar(exemplar), file=stream)
            return 0
        if args.obs_command == "prom":
            sessions = obs.read_trace_jsonl(args.trace_file)
            print(_trace_prometheus_text(sessions), file=stream, end="")
            return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise ValueError(f"unknown obs subcommand {args.obs_command!r}")


def main(argv=None, stream=None):
    """Entry point; returns a process exit code (0 ok, 2 bad input)."""
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return _run_lint(args, stream)
    if args.command == "obs":
        return _run_obs(args, stream)
    if args.command == "store":
        return _run_store(args, stream)
    if args.command == "serve":
        return _run_serve(args, stream)
    figures = (
        ["fig5a", "fig5b", "fig6", "fig7", "fig8"]
        if args.command == "all"
        else [args.command]
    )  # "align" dispatches through the same loop as a single entry
    # The lint subcommand defines none of these flags, hence the getattr.
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    measure_mem = getattr(args, "mem", False)
    observed = trace_path is not None or profile
    for index, name in enumerate(figures):
        start = time.perf_counter()
        session = None
        try:
            with obs.track_memory(enabled=measure_mem) as mem:
                if observed:
                    with obs.trace(
                        f"cli.{name}", scale=args.scale
                    ) as session:
                        text = _run_figure(name, args)
                else:
                    text = _run_figure(name, args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        _emit(name, text, args.out, stream)
        if measure_mem:
            print(f"[mem peak {mem.peak_mib:.1f} MiB]", file=stream)
        if session is not None:
            if measure_mem:
                # track_memory publishes the gauge only while inside an
                # active session; the peak is read after the session
                # closes, so fold it into the trace here instead.
                session.gauges.setdefault(
                    "mem.peak_bytes", mem.peak_bytes
                )
            if trace_path:
                # One JSONL file accumulates every figure of an
                # ``all`` run; each session appends its own records.
                obs.write_trace_jsonl(
                    session, trace_path, append=index > 0
                )
                print(f"[trace written {trace_path}]", file=stream)
            if profile:
                print(obs.format_profile(session), file=stream)
        print(f"[{name} completed in {elapsed:.1f}s]", file=stream)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

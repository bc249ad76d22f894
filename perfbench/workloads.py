"""The ``table``, ``crossval`` and ``million`` workloads.

Each workload generates its inputs from the run seed, calls the
program's public API from outside, checks every output, and -- in a
traced run -- records its own spans around the calls into each layer.
An op is the unit ``op_p50_s`` times:

========== ============================================================
table      ``BatchAligner().fit_predict(references, objectives)``, 64
           attributes over the paper-scale US world (30,238 zips x
           3,142 counties, 10 references)
crossval   ``leave_one_dataset_out(datasets)`` with library defaults,
           10 folds over the same world
million    ``ShardedAligner(n_shards=8, max_workers=2).fit_predict`` on
           a 50k x 1M banded universe with 4 attributes
========== ============================================================
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback

import numpy as np

from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.geoalign import GeoAlign
from repro.core.shard import ShardedAligner, plan_shards
from repro.metrics.crossval import leave_one_dataset_out

from perfbench import checks, envinfo, inputs
from perfbench.calibrate import Calibrator
from perfbench.checks import CheckFailed
from perfbench.spans import SpanRecorder, layer_self_time, self_time_coverage

#: Name of every op's root span.
OP = "op"
#: Rounds of each after-run probe in a traced run.
PROBE_ROUNDS = 5


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def ref_row_sums(references) -> np.ndarray:
    return np.vstack(
        [np.asarray(ref.dm.matrix.sum(axis=1)).ravel() for ref in references]
    )


def matrix_rank_deficient(gram: np.ndarray, masks: np.ndarray) -> int:
    """Eq. 15 problems whose (sub-)Gram has numerical rank below its size."""
    count = 0
    for mask in masks:
        idx = np.flatnonzero(mask)
        sub = gram[np.ix_(idx, idx)]
        if np.linalg.matrix_rank(sub) < len(idx):
            count += 1
    return count


def kernel_probe(rec, op_id, stack, weights, objectives) -> tuple[np.ndarray, int]:
    """Call the four stack kernels on fitted weights; returns (result, bytes).

    The byte count is computed from the sizes of the arrays each kernel
    reads and writes, not measured.
    """
    dm = stack.dm_stack
    blend_weights = weights / stack.scales[np.newaxis, :]
    with rec.span("kernels", op_id):
        with rec.span("kernel.blend", op_id):
            blended = dm.blend(blend_weights)
        with rec.span("kernel.row_sums", op_id):
            denominators = dm.row_sums(blended)
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = np.where(denominators > 0.0, objectives / denominators, 0.0)
        with rec.span("kernel.rescale", op_id):
            scaled = dm.scale_rows_inplace(blended, factors)
        with rec.span("kernel.reaggregate", op_id):
            result = dm.reaggregate(scaled)
    n = blended.shape[0]
    index_bytes = dm.entry_rows.nbytes + np.asarray(dm.entry_cols).nbytes
    computed = (
        dm.resident_bytes + blend_weights.nbytes + blended.nbytes  # blend
        + blended.nbytes + denominators.nbytes  # row sums
        + 3 * blended.nbytes + index_bytes  # rescale: read, gather, write
        + scaled.nbytes + n * np.asarray(dm.entry_cols).nbytes + result.nbytes
    )
    return result, int(computed)


def kernel_layers(rec, stack, weights, objectives, expected) -> dict[str, float]:
    computed = 0
    for i in range(PROBE_ROUNDS):
        result, computed = kernel_probe(rec, f"kernels{i}", stack, weights, objectives)
        checks.close(result, expected, 1e-12, "kernel probe vs op")
    return {
        "kernel.blend_s": layer_self_time(rec.spans, "kernels", "kernel.blend"),
        "kernel.row_sums_s": layer_self_time(rec.spans, "kernels", "kernel.row_sums"),
        "kernel.rescale_s": layer_self_time(rec.spans, "kernels", "kernel.rescale"),
        "kernel.reaggregate_s": layer_self_time(
            rec.spans, "kernels", "kernel.reaggregate"
        ),
        "kernel.bytes_computed": float(computed),
    }


def stack_layers(stack) -> dict[str, float]:
    return {
        "stack.nnz": float(stack.nnz),
        "stack.resident_mib": stack.dm_stack.resident_bytes / 2**20,
    }


def solver_layers(results, gram, masks) -> dict[str, float]:
    return {
        "solver.iterations": float(sum(r.iterations for r in results)),
        "solver.unconverged": float(sum(not r.converged for r in results)),
        "solver.rank_deficient": float(matrix_rank_deficient(gram, masks)),
    }


class OpWorkload:
    """Shared measuring loop for workloads whose op is one library call."""

    name = ""
    attrs_per_op = 1
    #: Layers a traced op must cover (self time) to at least this share.
    min_coverage = 0.90

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.nrmse_mean: float | None = None
        self.synth_s: list[float] = []

    # -- hooks ------------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def setup_program(self) -> None:
        """Program set-up before the first op (none unless overridden)."""

    def op(self):
        raise NotImplementedError

    def traced_op(self, rec: SpanRecorder, op_id: str):
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def probe_layers(self, rec: SpanRecorder) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the last set-up started (nothing unless overridden)."""

    def shutdown(self) -> None:
        """Release everything at the end of the run."""
        self.close()

    def environment(self) -> dict[str, object]:
        """Facts about processes the workload started, for the report."""
        return {}

    # -- measuring --------------------------------------------------------
    def setup(self) -> None:
        start = time.perf_counter()
        self.generate()
        self.synth_s.append(time.perf_counter() - start)
        self.setup_program()

    def peak_pid(self) -> int | str:
        return "self"

    def record_failure(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)
        print(f"[perfbench] {self.name}: {reason}", file=sys.stderr)

    def checked(self, run) -> bool:
        """Run one op and check its output; ``False`` when it failed."""
        self.attempted += 1
        try:
            self.check(run())
        except CheckFailed as exc:
            self.record_failure(f"check failed: {exc}")
            return False
        except Exception:  # the op itself raised: count it, keep measuring
            self.record_failure("op raised:\n" + traceback.format_exc())
            return False
        return True

    def measure(self, seconds: float, rec: SpanRecorder | None) -> dict:
        """Run ops until ``seconds`` of op wall time; traced runs alternate.

        Every op is preceded by the calibration kernel; ``plain`` and
        ``traced`` hold reference-host seconds, ``wall`` the raw times of
        the untraced ops.
        """
        calibrator = Calibrator()
        plain: list[float] = []
        wall: list[float] = []
        traced: list[float] = []
        busy = 0.0
        i = 0
        while busy < seconds:
            gc.collect()
            factor = calibrator.factor()
            if rec is not None and i % 2 == 1:
                op_id = f"op{i}"
                self.checked(lambda: self.traced_op(rec, op_id))
                root = next(s for s in reversed(rec.spans) if s.name == OP)
                traced.append(root.duration * factor)
                busy += root.duration
            else:
                elapsed: list[float] = []

                def timed():
                    start = time.perf_counter()
                    try:
                        return self.op()
                    finally:
                        elapsed.append(time.perf_counter() - start)

                if self.checked(timed):
                    plain.append(elapsed[0] * factor)
                    wall.append(elapsed[0])
                busy += elapsed[0]
            i += 1
        return {
            "plain": plain,
            "wall": wall,
            "traced": traced,
            "calibration_s": calibrator.samples,
        }

    def end_to_end(self, samples: dict, peak_mib: float) -> dict[str, float]:
        plain = samples["plain"]
        return {
            "attrs_per_s": self.attrs_per_op * len(plain) / sum(plain),
            "op_p50_s": median(plain),
            "op_p90_s": percentile(plain, 90),
            "peak_rss_mib": peak_mib,
            "nrmse_mean": float(self.nrmse_mean),
        }

    def per_layer(self, samples: dict, rec: SpanRecorder) -> dict[str, float]:
        layers = {"synth.build_s": median(self.synth_s)}
        layers.update(self.probe_layers(rec))
        if self.min_coverage:
            coverage = self_time_coverage(rec.spans, OP)
            layers["bench.self_coverage"] = coverage
            # Enforced on the defined (paper-scale) inputs; on the tiny
            # smoke-test inputs the library's per-fold glue weighs more.
            if self.scale == 1.0 and coverage < self.min_coverage:
                self.record_failure(
                    f"layer self times cover {coverage:.1%} of an op "
                    f"(< {self.min_coverage:.0%})"
                )
        layers["bench.trace_overhead"] = median(samples["traced"]) / median(
            samples["plain"]
        )
        return layers


class TableWorkload(OpWorkload):
    """64 attributes through one ``BatchAligner`` fit+predict per op."""

    name = "table"
    attrs_per_op = inputs.TABLE_ATTRIBUTES

    def generate(self) -> None:
        self.references = inputs.us_references(self.scale)
        self.attrs = inputs.mixture_attributes(
            self.references, inputs.TABLE_ATTRIBUTES, self.seed, "table"
        )
        self.row_sums = ref_row_sums(self.references)
        self.expected = None

    def op(self):
        aligner = BatchAligner()
        return aligner, aligner.fit_predict(self.references, self.attrs.objectives)

    def traced_op(self, rec, op_id):
        with rec.span(OP, op_id):
            with rec.span("stack.build", op_id):
                stack = ReferenceStack.build(self.references)
            with rec.span("batch.fit", op_id):
                aligner = BatchAligner().fit(stack, self.attrs.objectives)
            with rec.span("batch.predict", op_id):
                predictions = aligner.predict()
        self.last = aligner
        return aligner, predictions

    def check(self, output) -> None:
        aligner, predictions = output
        checks.alignment_output(
            predictions, self.attrs.objectives, aligner.weights_, self.row_sums
        )
        if self.expected is not None:
            checks.close(predictions, self.expected, 1e-12, "op vs first op")

    def first_op(self):
        output = self.op()
        self.check(output)
        self.expected = output[1]
        self.nrmse_mean = float(checks.nrmse(self.expected, self.attrs.truth).mean())
        return output

    def warmup(self) -> None:
        self.checked(self.first_op)
        self.checked(self.op)

    def probe_layers(self, rec):
        aligner = self.last
        stack = aligner.stack_
        layers = {
            "stack.build_s": layer_self_time(rec.spans, OP, "stack.build"),
            "batch.fit_s": layer_self_time(rec.spans, OP, "batch.fit"),
            "batch.predict_s": layer_self_time(rec.spans, OP, "batch.predict"),
        }
        layers.update(stack_layers(stack))
        layers.update(solver_layers(aligner.solver_results_, stack.gram, aligner.masks_))
        layers.update(
            kernel_layers(
                rec, stack, aligner.weights_, self.attrs.objectives, self.expected
            )
        )
        return layers


class CrossvalWorkload(OpWorkload):
    """Leave-one-dataset-out over the US world's 10 datasets (Fig. 5b)."""

    name = "crossval"
    attrs_per_op = 10

    def generate(self) -> None:
        self.datasets = inputs.permuted(inputs.us_references(self.scale), self.seed)
        self.truth = np.vstack(
            [np.asarray(d.dm.matrix.sum(axis=0)).ravel() for d in self.datasets]
        )
        self.expected_scores = None

    def op(self):
        return leave_one_dataset_out(self.datasets)

    def fold_scores(self, result) -> np.ndarray:
        return np.array(
            [result.score_for(d.name, "GeoAlign").nrmse for d in self.datasets]
        )

    def instrumented(self, rec=None, op_id=""):
        """One op through the public hooks, capturing each fold's estimator."""
        estimators: list[GeoAlign] = []
        estimates: list[np.ndarray] = []

        def factory():
            estimators.append(GeoAlign())
            return estimators[-1]

        def runner(method, call):
            if rec is None:
                out = call()
            else:
                with rec.span("geoalign.fold", op_id):
                    out = call()
            estimates.append(out)
            return out, 0.0

        result = leave_one_dataset_out(
            self.datasets, geoalign_factory=factory, runner=runner
        )
        return result, estimators, np.vstack(estimates)

    def traced_op(self, rec, op_id):
        with rec.span(OP, op_id):
            result, estimators, _ = self.instrumented(rec, op_id)
        self.last_estimators = estimators
        return result

    def check(self, result) -> None:
        scores = self.fold_scores(result)
        if self.expected_scores is None:
            raise CheckFailed("no verified first op to compare against")
        checks.close(scores, self.expected_scores, 1e-12, "fold NRMSEs vs first op")

    def first_op(self):
        """An instrumented op, verified in full, then a default one."""
        result, estimators, estimates = self.instrumented()
        checks.finite_nonnegative(estimates)
        objectives = np.vstack([d.source_vector for d in self.datasets])
        for fold, estimator in enumerate(estimators):
            rows = ref_row_sums(estimator.references_)
            checks.alignment_output(
                estimates[fold : fold + 1],
                objectives[fold : fold + 1],
                estimator.weights_[np.newaxis, :],
                rows,
            )
        mine = checks.nrmse(estimates, self.truth)
        reported = self.fold_scores(result)
        checks.close(reported, mine, 1e-9, "reported vs own NRMSE")
        self.expected_scores = reported
        self.nrmse_mean = float(mine.mean())
        return self.op()

    def warmup(self) -> None:
        self.checked(self.first_op)
        self.checked(self.op)

    def probe_layers(self, rec):
        objectives = np.vstack([d.source_vector for d in self.datasets])
        masks = ~np.eye(len(self.datasets), dtype=bool)
        for i in range(PROBE_ROUNDS):
            op_id = f"folds{i}"
            with rec.span("batch.folds", op_id):
                with rec.span("stack.build", op_id):
                    stack = ReferenceStack.build(self.datasets)
                with rec.span("batch.fit", op_id):
                    aligner = BatchAligner().fit(stack, objectives, masks=masks)
                with rec.span("batch.predict", op_id):
                    predictions = aligner.predict()
            checks.alignment_output(
                predictions, objectives, aligner.weights_, ref_row_sums(self.datasets)
            )
        results = [e.solver_result_ for e in self.last_estimators]
        layers = {
            "geoalign.fold_s": layer_self_time(rec.spans, OP, "geoalign.fold")
            / len(self.datasets),
            "batch.folds_s": median(
                s.duration for s in rec.spans if s.name == "batch.folds"
            ),
            "stack.build_s": layer_self_time(rec.spans, "batch.folds", "stack.build"),
            "batch.fit_s": layer_self_time(rec.spans, "batch.folds", "batch.fit"),
            "batch.predict_s": layer_self_time(
                rec.spans, "batch.folds", "batch.predict"
            ),
        }
        layers.update(stack_layers(stack))
        layers.update(solver_layers(results, stack.gram, masks))
        layers.update(
            kernel_layers(rec, stack, aligner.weights_, objectives, predictions)
        )
        return layers


class MillionWorkload(OpWorkload):
    """The Fig. 6 extension: 8 shards, 2 pool workers, 1M target units."""

    name = "million"
    attrs_per_op = inputs.MILLION_ATTRIBUTES
    n_shards = 8
    max_workers = 2

    def generate(self) -> None:
        self.references, self.attrs = inputs.million_inputs(self.seed, self.scale)
        self.row_sums = ref_row_sums(self.references)
        self.expected = None

    def aligner(self) -> ShardedAligner:
        return ShardedAligner(n_shards=self.n_shards, max_workers=self.max_workers)

    def op(self):
        aligner = self.aligner()
        return aligner, aligner.fit_predict(self.references, self.attrs.objectives)

    def traced_op(self, rec, op_id):
        with rec.span(OP, op_id):
            with rec.span("stack.build", op_id):
                stack = ReferenceStack.build(self.references)
            aligner = self.aligner()
            with rec.span("shard.fit", op_id):
                aligner.fit(stack, self.attrs.objectives)
            with rec.span("shard.predict", op_id):
                predictions = aligner.predict()
        self.last = aligner
        return aligner, predictions

    def check(self, output) -> None:
        aligner, predictions = output
        checks.alignment_output(
            predictions, self.attrs.objectives, aligner.weights_, self.row_sums
        )
        residual = aligner.merge_residual_
        if residual is None or not residual <= checks.SHARD_RTOL:
            raise CheckFailed(f"merge residual {residual!r} > {checks.SHARD_RTOL}")
        self.merge_residuals.append(residual)
        if self.expected is not None:
            checks.close(predictions, self.expected, 1e-12, "op vs first op")

    def first_op(self):
        mono = BatchAligner().fit_predict(self.references, self.attrs.objectives)
        output = self.op()
        self.check(output)
        checks.close(output[1], mono, checks.SHARD_RTOL, "sharded vs BatchAligner")
        self.expected = output[1]
        self.nrmse_mean = float(checks.nrmse(self.expected, self.attrs.truth).mean())
        return output

    def warmup(self) -> None:
        self.merge_residuals: list[float] = []
        self.checked(self.first_op)
        self.checked(self.op)

    def probe_layers(self, rec):
        stack = self.last.stack_
        layers = {
            "stack.build_s": layer_self_time(rec.spans, OP, "stack.build"),
            "shard.fit_s": layer_self_time(rec.spans, OP, "shard.fit"),
            "shard.predict_s": layer_self_time(rec.spans, OP, "shard.predict"),
            "shard.boundary_rows": float(self.last.plan_.n_boundary_rows),
            "shard.merge_residual": max(self.merge_residuals),
            "shard.worker_peak_rss_mib": envinfo.children_peak_rss_mib(),
        }
        for i in range(PROBE_ROUNDS):
            with rec.span("shard.plan", f"plan{i}"):
                plan_shards(stack, self.n_shards)
        layers["shard.plan_s"] = median(
            s.duration for s in rec.spans if s.name == "shard.plan"
        )
        mono_peaks = []
        for i in range(PROBE_ROUNDS):
            op_id = f"mono{i}"
            gc.collect()
            envinfo.reset_peak_rss()
            with rec.span("shard.mono", op_id):
                with rec.span("stack.build", op_id):
                    mono_stack = ReferenceStack.build(self.references)
                with rec.span("batch.fit", op_id):
                    mono = BatchAligner().fit(mono_stack, self.attrs.objectives)
                with rec.span("batch.predict", op_id):
                    predictions = mono.predict()
            mono_peaks.append(envinfo.peak_rss_mib())
            checks.close(predictions, self.expected, checks.SHARD_RTOL, "mono probe")
        layers["shard.mono_s"] = median(
            s.duration for s in rec.spans if s.name == "shard.mono"
        )
        layers["shard.mono_peak_rss_mib"] = median(mono_peaks)
        layers["batch.fit_s"] = layer_self_time(rec.spans, "shard.mono", "batch.fit")
        layers["batch.predict_s"] = layer_self_time(
            rec.spans, "shard.mono", "batch.predict"
        )
        layers.update(stack_layers(stack))
        layers.update(
            solver_layers(self.last.solver_results_, stack.gram, self.last.masks_)
        )
        layers.update(
            kernel_layers(
                rec, stack, self.last.weights_, self.attrs.objectives, self.expected
            )
        )
        return layers

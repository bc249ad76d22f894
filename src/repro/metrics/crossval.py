"""Leave-one-dataset-out cross-validation (paper §4.1).

The paper evaluates on a pool of datasets for which *accurate*
disaggregation matrices exist.  Each dataset in turn plays the objective
attribute: its source vector is given to every method, the remaining
datasets act as GeoAlign's references, and predictions are scored against
the dataset's true target aggregates (its DM's column sums).

Datasets enter the harness as :class:`~repro.core.reference.Reference`
objects -- a reference *is* (name, source vector, DM), and its true
target vector is implied by the DM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.core.baselines import Dasymetric
from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.geoalign import GeoAlign
from repro.metrics.errors import rmse_and_nrmse
from repro.obs.trace import span as _span
from repro.obs.trace import timed_span as _timed_span

#: Valid GeoAlign execution engines for the cross-validation harness.
ENGINES = ("loop", "batch")


@dataclass(frozen=True)
class MethodScore:
    """One (method, test dataset) evaluation."""

    method: str
    dataset: str
    rmse: float
    nrmse: float
    runtime_seconds: float


def _method_score(method, dataset, estimates, truth, seconds):
    """One (method, fold) score from one validated estimate/truth pair."""
    error, normalised = rmse_and_nrmse(estimates, truth)
    return MethodScore(method, dataset, error, normalised, seconds)


@dataclass
class CrossValidationResult:
    """All scores of one cross-validated experiment."""

    scores: list = field(default_factory=list)

    def methods(self):
        """Method names in first-appearance order."""
        return list(dict.fromkeys(score.method for score in self.scores))

    def datasets(self):
        """Dataset names in first-appearance order."""
        return list(dict.fromkeys(score.dataset for score in self.scores))

    def nrmse_table(self):
        """``{dataset: {method: nrmse}}`` nested mapping."""
        table = {}
        for score in self.scores:
            table.setdefault(score.dataset, {})[score.method] = score.nrmse
        return table

    def score_for(self, dataset, method):
        """The unique score for a (dataset, method) pair."""
        for score in self.scores:
            if score.dataset == dataset and score.method == method:
                return score
        raise KeyError(f"no score for dataset={dataset!r}, method={method!r}")

    def to_text(self, metric="nrmse"):
        """Fixed-width text table, datasets as rows, methods as columns."""
        methods = self.methods()
        datasets = self.datasets()
        table = self.nrmse_table()
        name_width = max(len(d) for d in datasets) + 2
        col_width = max(max(len(m) for m in methods) + 2, 12)
        lines = [
            " " * name_width
            + "".join(m.rjust(col_width) for m in methods)
        ]
        for dataset in datasets:
            row = dataset.ljust(name_width)
            for method in methods:
                value = table.get(dataset, {}).get(method)
                cell = "-" if value is None else f"{value:.4f}"
                row += cell.rjust(col_width)
            lines.append(row)
        return "\n".join(lines)


def _batch_geoalign_scores(datasets, geoalign_factory, reference_selector):
    """All folds' GeoAlign runs as one shared-stack batch.

    Every fold aligns its held-out dataset against a subset of the same
    pool, so the N fold fits share one :class:`ReferenceStack` over *all*
    datasets; each fold is one attribute row whose mask excludes the test
    dataset (and whatever the reference selector drops).  Masked-out
    references get weight exactly 0.0, which matches the scalar path run
    on the subset (see :mod:`repro.core.batch`).

    Per-fold runtime is the batch wall-time split evenly across folds --
    the shared work has no per-fold attribution.
    """
    probe = geoalign_factory()
    if not isinstance(probe, GeoAlign):
        raise ValidationError(
            "engine='batch' requires geoalign_factory to build GeoAlign "
            f"estimators (got {type(probe).__name__}); use engine='loop'"
        )
    names = [d.name for d in datasets]
    index_of = {name: i for i, name in enumerate(names)}
    masks = np.zeros((len(datasets), len(datasets)), dtype=bool)
    objectives = np.vstack([d.source_vector for d in datasets])
    for fold, test in enumerate(datasets):
        pool = [d for d in datasets if d.name != test.name]
        if reference_selector is not None:
            selected = list(reference_selector(test, pool))
            if not selected:
                raise ValidationError(
                    f"reference selector returned no references for "
                    f"{test.name!r}"
                )
        else:
            selected = pool
        for ref in selected:
            if ref.name not in index_of:
                raise ValidationError(
                    f"reference selector returned {ref.name!r}, which is "
                    "not in the dataset pool; engine='batch' requires "
                    "subsets of the pool (use engine='loop')"
                )
            masks[fold, index_of[ref.name]] = True

    with _timed_span("crossval.batch", n_folds=len(datasets)) as clock:
        aligner = BatchAligner(
            normalize=probe.normalize,
            denominator=probe.denominator,
        )
        stack = ReferenceStack.build(datasets, normalize=probe.normalize)
        estimates = aligner.fit(
            stack, objectives, attribute_names=names, masks=masks
        ).predict()
    seconds_per_fold = clock.seconds / len(datasets)

    return [
        _method_score(
            "GeoAlign",
            test.name,
            estimates[fold],
            test.dm.col_sums(),
            seconds_per_fold,
        )
        for fold, test in enumerate(datasets)
    ]


def leave_one_dataset_out(
    datasets,
    dasymetric_reference_names=(),
    areal_reference=None,
    geoalign_factory=GeoAlign,
    reference_selector=None,
    runner=None,
    engine="loop",
):
    """Run the paper's cross-validated comparison over a dataset pool.

    Parameters
    ----------
    datasets:
        Sequence of :class:`~repro.core.reference.Reference`; each in turn
        is the held-out objective attribute.
    dasymetric_reference_names:
        Names of datasets (e.g. the three population-level ones) whose
        single-reference dasymetric method is also scored.  A dasymetric
        method is skipped on the fold where its own reference is the test
        dataset (§4.1).
    areal_reference:
        Optional :class:`Reference` whose DM is intersection areas; when
        given, areal weighting is evaluated too (skipped on its own fold
        if it also appears in ``datasets`` by name).
    geoalign_factory:
        Zero-argument callable building a fresh GeoAlign estimator per
        fold (swap in configured variants for ablations).
    reference_selector:
        Optional hook ``(test_dataset, pool) -> subset of pool`` deciding
        which references GeoAlign may use on each fold; used by the
        reference-selection experiment (§4.4.2).  Default: the full pool.
    runner:
        Optional hook ``(method_name, fit_predict_callable) -> (estimates,
        seconds)`` for instrumented timing; the default wraps each call
        in a ``crossval.method`` tracing span
        (:func:`repro.obs.timed_span`), which times with
        ``time.perf_counter`` whether or not a trace session is active.
        Only consulted by ``engine="loop"`` (the batch engine has no
        per-fold call to instrument).
    engine:
        ``"loop"`` (default) fits one scalar GeoAlign per fold;
        ``"batch"`` runs every fold through one shared
        :class:`~repro.core.batch.BatchAligner` pass (tolerance-equal,
        much faster on many folds).  Baseline methods always loop.

    Returns
    -------
    CrossValidationResult
    """
    if engine not in ENGINES:
        raise ValidationError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )

    datasets = list(datasets)
    if len(datasets) < 2:
        raise ValidationError(
            "cross-validation needs at least two datasets (one test fold "
            "plus at least one reference)"
        )
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ValidationError("dataset names must be unique")
    for name in dasymetric_reference_names:
        if name not in names:
            raise ValidationError(
                f"dasymetric reference {name!r} is not in the dataset pool"
            )

    if runner is None:

        def runner(method_name, call):
            with _timed_span("crossval.method", method=method_name) as clock:
                estimates = call()
            return estimates, clock.seconds

    result = CrossValidationResult()
    by_name = {d.name: d for d in datasets}

    batch_scores = None
    if engine == "batch":
        batch_scores = _batch_geoalign_scores(
            datasets, geoalign_factory, reference_selector
        )

    for fold, test in enumerate(datasets):
        with _span("crossval.fold", dataset=test.name):
            truth = test.dm.col_sums()
            if batch_scores is not None:
                result.scores.append(batch_scores[fold])
            else:
                pool = [d for d in datasets if d.name != test.name]
                if reference_selector is not None:
                    selected = list(reference_selector(test, pool))
                    if not selected:
                        raise ValidationError(
                            f"reference selector returned no references "
                            f"for {test.name!r}"
                        )
                else:
                    selected = pool

                estimator = geoalign_factory()
                estimates, seconds = runner(
                    "GeoAlign",
                    lambda: estimator.fit_predict(
                        selected, test.source_vector
                    ),
                )
                result.scores.append(
                    _method_score(
                        "GeoAlign", test.name, estimates, truth, seconds
                    )
                )

            for ref_name in dasymetric_reference_names:
                if ref_name == test.name:
                    continue
                method = Dasymetric(by_name[ref_name])
                estimates, seconds = runner(
                    method.name,
                    lambda m=method: m.fit_predict(test.source_vector),
                )
                result.scores.append(
                    _method_score(
                        method.name, test.name, estimates, truth, seconds
                    )
                )

            if (
                areal_reference is not None
                and areal_reference.name != test.name
            ):
                method = Dasymetric(areal_reference)
                estimates, seconds = runner(
                    "areal-weighting",
                    lambda m=method: m.fit_predict(test.source_vector),
                )
                result.scores.append(
                    _method_score(
                        "areal-weighting",
                        test.name,
                        estimates,
                        truth,
                        seconds,
                    )
                )

    return result

"""The GeoAlign estimator: Algorithm 1 of the paper.

GeoAlign realigns an objective attribute's aggregates from source units
to target units in three steps:

1. **Weight learning** (Eq. 15) -- regress the max-normalised objective
   source vector on the max-normalised reference source vectors under a
   probability-simplex constraint.
2. **Disaggregation** (Eq. 14) -- blend the reference disaggregation
   matrices with the learned weights and rescale each row so it carries
   exactly the objective's source aggregate (volume preservation, Eq. 16).
3. **Re-aggregation** (Eq. 17) -- column sums of the estimated matrix are
   the target-unit estimates.

The three steps run in :class:`~repro.core.batch.BatchAligner`, which
aligns N attributes against one reference set; :class:`GeoAlign` is its
one-attribute front, so a GeoAlign fit is row 0 of a one-row batch fit,
bit for bit.

The estimator is deliberately dimension-agnostic: it consumes aggregate
vectors and disaggregation matrices only, never geometry, so the same
class realigns 2-D maps, 1-D histograms and n-D box systems (paper §3.4,
"applicable to any dimension").
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.batch import BatchAligner
from repro.core.reference import Reference
from repro.core.solver import SimplexLstsqResult
from repro.errors import NotFittedError
from repro.obs.trace import span as _span
from repro.partitions.dm import DisaggregationMatrix
from repro.utils.arrays import as_float_vector

FloatArray = NDArray[np.float64]


class GeoAlign:
    """Adaptive multi-reference crosswalk estimator.

    Parameters
    ----------
    normalize:
        Max-normalise the objective and reference source vectors before
        weight learning (paper §3.4).  Turning this off is an ablation,
        not a recommended mode.
    denominator:
        What divides each blended DM row in Eq. 14.  ``"row-sums"``
        (default) divides by the blended matrix's actual row sums, which
        keeps volume preservation exact even when reference source
        vectors disagree with their DMs.  ``"source-vectors"`` is the
        literal Eq. 14 denominator ``sum_k beta_k a^s_rk[i]``; the two
        coincide on self-consistent references, but only "row-sums"
        reproduces the paper's observed robustness to noisy reference
        vectors (Fig. 7) -- see EXPERIMENTS.md and the ablation bench.

    Attributes (after :meth:`fit`)
    ------------------------------
    weights_:
        Learned simplex weights, one per reference.
    blend_weights_:
        The weights taken back to each reference's raw scale (set by
        :meth:`predict` / :meth:`predict_dm`).
    references_:
        The fitted references, in input order.
    objective_source_:
        The objective's source aggregate vector.
    solver_result_:
        Full :class:`~repro.core.solver.SimplexLstsqResult`.
    timer_:
        :class:`~repro.utils.timer.StageTimer` with per-stage runtime
        ("weights", "disaggregation", "reaggregation"); reproduces the
        paper's §4.3 claim that DM construction dominates.
    """

    def __init__(
        self,
        normalize: bool = True,
        denominator: str = "row-sums",
    ) -> None:
        self._batch = BatchAligner(
            normalize=normalize, denominator=denominator
        )
        self.weights_: FloatArray | None = None
        self.references_: list[Reference] | None = None
        self.objective_source_: FloatArray | None = None
        self.solver_result_: SimplexLstsqResult | None = None
        self.timer_ = self._batch.timer_
        self._estimated_dm: DisaggregationMatrix | None = None
        self._estimates: FloatArray | None = None

    @property
    def normalize(self) -> bool:
        return self._batch.normalize

    @property
    def denominator(self) -> str:
        return self._batch.denominator

    @property
    def blend_weights_(self) -> FloatArray | None:
        blend_weights = self._batch.blend_weights_
        return None if blend_weights is None else blend_weights[0]

    # ------------------------------------------------------------------
    def fit(
        self,
        references: Iterable[Reference],
        objective_source: ArrayLike,
    ) -> "GeoAlign":
        """Learn reference weights (Algorithm 1, step 1).

        Parameters
        ----------
        references:
            Sequence of :class:`~repro.core.reference.Reference` sharing
            one source/target labelling.
        objective_source:
            ``a^s_o`` -- the objective attribute's aggregates in source
            units.

        Returns
        -------
        self
        """
        references = list(references)
        objective = as_float_vector(objective_source, name="objective_source")
        with _span("geoalign.fit", n_references=len(references)):
            batch = self._batch.fit(references, objective[np.newaxis, :])
        assert batch.stack_ is not None and batch.weights_ is not None
        assert batch.solver_results_ is not None
        self.weights_ = batch.weights_[0]
        self.references_ = batch.stack_.references
        self.objective_source_ = objective
        self.solver_result_ = batch.solver_results_[0]
        self._estimated_dm = None
        self._estimates = None
        return self

    def _require_fitted(self) -> None:
        if self.weights_ is None:
            raise NotFittedError(
                "this GeoAlign instance is not fitted; call fit() first"
            )

    # ------------------------------------------------------------------
    def predict_dm(self) -> DisaggregationMatrix:
        """Estimated disaggregation matrix of the objective (Eq. 14).

        The result is cached; volume preservation (Eq. 16) holds exactly
        under ``denominator="row-sums"`` and up to reference-data
        consistency under the paper's ``"source-vectors"``.
        """
        self._require_fitted()
        if self._estimated_dm is None:
            with _span("geoalign.predict_dm"):
                self._estimated_dm = self._batch.predict_dms()[0]
        assert self._estimated_dm is not None  # assigned just above
        return self._estimated_dm

    def predict(self) -> FloatArray:
        """Estimated target-unit aggregates ``â^t_o`` (Eq. 17).

        Cached after the first call: repeated predicts on one fit reuse
        the result and do not re-accumulate the timer's stages, so
        ``timer_`` always reports single-run timings.
        """
        self._require_fitted()
        with _span("geoalign.predict"):
            if self._estimates is None:
                self._estimates = self._batch.predict()[0]
        assert self._estimates is not None  # assigned just above
        return self._estimates

    def fit_predict(
        self,
        references: Iterable[Reference],
        objective_source: ArrayLike,
    ) -> FloatArray:
        """Convenience: ``fit(...)`` then ``predict()``."""
        return self.fit(references, objective_source).predict()

    # ------------------------------------------------------------------
    def weight_report(self) -> dict[str, float]:
        """Mapping of reference name to learned weight (fitted only)."""
        self._require_fitted()
        assert self.references_ is not None and self.weights_ is not None
        return {
            ref.name: float(w)
            for ref, w in zip(self.references_, self.weights_)
        }

    def __repr__(self) -> str:
        status = "fitted" if self.weights_ is not None else "unfitted"
        return (
            f"GeoAlign(normalize={self.normalize}, "
            f"denominator={self.denominator!r}, {status})"
        )

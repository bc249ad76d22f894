"""Baseline crosswalk methods from the paper's evaluation.

* :class:`Dasymetric` -- the single-reference dasymetric method
  [Wright 1936; Langford 2006]: redistribute the objective's source
  aggregates proportionally to one known reference's disaggregation
  matrix.  The paper's main comparator (three population-level variants).
* :class:`ArealWeighting` -- the special case whose reference is
  intersection *area* [Goodchild & Lam 1980; Markoff & Shapiro 1973].
  Reported in the paper's text as 15-50x worse than GeoAlign.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import NotFittedError, ShapeMismatchError, ValidationError
from repro.core.reference import Reference
from repro.utils.arrays import as_nonnegative_vector

if TYPE_CHECKING:
    from repro.partitions.dm import DisaggregationMatrix
    from repro.partitions.intersection import IntersectionUnits

FloatArray = NDArray[np.float64]


class Dasymetric:
    """Single-reference dasymetric crosswalk.

    Each source aggregate is split over target units in proportion to the
    reference attribute's split: ``â^t_o[j] = sum_i a^s_o[i] *
    DM_r[i, j] / a^s_r[i]``.  Source units where the reference is zero
    contribute nothing (their mass cannot be placed), which mirrors how
    practitioners apply crosswalk files.

    Parameters
    ----------
    reference:
        The single :class:`~repro.core.reference.Reference` to follow.
    """

    def __init__(self, reference: Reference) -> None:
        if not isinstance(reference, Reference):
            raise ValidationError(
                f"reference must be a Reference, got {type(reference).__name__}"
            )
        self.reference = reference
        self.objective_source_: FloatArray | None = None
        self._estimated_dm: "DisaggregationMatrix | None" = None

    @property
    def name(self) -> str:
        return f"dasymetric[{self.reference.name}]"

    def fit(self, objective_source: ArrayLike) -> "Dasymetric":
        """Record the objective's source aggregates; no learning happens."""
        objective = as_nonnegative_vector(
            objective_source, name="objective_source"
        )
        if objective.shape[0] != self.reference.dm.shape[0]:
            raise ShapeMismatchError(
                f"objective_source has {objective.shape[0]} entries but the "
                f"reference covers {self.reference.dm.shape[0]} source units"
            )
        self.objective_source_ = objective
        self._estimated_dm = None
        return self

    def _require_fitted(self) -> None:
        if self.objective_source_ is None:
            raise NotFittedError("call fit() before predict()")

    def predict_dm(self) -> "DisaggregationMatrix":
        """Estimated objective DM under the single-reference split."""
        self._require_fitted()
        if self._estimated_dm is None:
            self._estimated_dm = self.reference.dm.rescale_rows(
                self.objective_source_,
                denominators=self.reference.source_vector,
            )
        return self._estimated_dm

    def predict(self) -> FloatArray:
        """Estimated target aggregates."""
        return self.predict_dm().col_sums()

    def fit_predict(self, objective_source: ArrayLike) -> FloatArray:
        return self.fit(objective_source).predict()

    def __repr__(self) -> str:
        return f"Dasymetric(reference={self.reference.name!r})"


class ArealWeighting(Dasymetric):
    """Areal weighting: dasymetric with intersection area as reference.

    Assumes the objective is uniformly distributed inside each source
    unit (the homogeneity assumption the paper's introduction argues
    rarely holds; Figure 5's text reports it losing by 15-50x).

    Parameters
    ----------
    intersections:
        An :class:`~repro.partitions.intersection.IntersectionUnits`
        overlay from which intersection areas are taken.
    """

    def __init__(self, intersections: "IntersectionUnits") -> None:
        area_dm = intersections.area_dm()
        reference = Reference("Area", area_dm.row_sums(), area_dm)
        super().__init__(reference)

    @property
    def name(self) -> str:
        return "areal-weighting"

    def __repr__(self) -> str:
        return "ArealWeighting()"


"""Intersection unit systems: the overlay of a source and a target system.

``build_intersection`` computes U^st (paper section 3.1): every pair of a
source unit and a target unit with positive overlap measure becomes one
intersection unit.  The result carries enough structure for everything the
experiments need:

* the *area* disaggregation matrix (the areal-weighting reference),
* point-to-intersection assignment (to aggregate synthetic point datasets
  into reference DMs, mirroring what the paper did in ArcGIS), and
* the index arrays linking intersection units back to their parents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import PartitionError, ShapeMismatchError
from repro.obs.trace import span as _span
from repro.partitions.dm import DisaggregationMatrix

if TYPE_CHECKING:
    from repro.partitions.system import UnitSystem

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]


class IntersectionUnits:
    """The overlay U^st of a source and a target unit system.

    Attributes
    ----------
    source, target:
        The parent unit systems.
    src_idx, tgt_idx:
        Parallel int arrays: intersection unit ``k`` lies inside source
        unit ``src_idx[k]`` and target unit ``tgt_idx[k]``.
    measure:
        Overlap size (area / length / volume) of each intersection unit.
    """

    def __init__(
        self,
        source: "UnitSystem",
        target: "UnitSystem",
        src_idx: ArrayLike,
        tgt_idx: ArrayLike,
        measure: ArrayLike,
    ) -> None:
        self.source = source
        self.target = target
        self.src_idx = np.asarray(src_idx, dtype=np.int64)
        self.tgt_idx = np.asarray(tgt_idx, dtype=np.int64)
        self.measure = np.asarray(measure, dtype=float)
        if not (
            len(self.src_idx) == len(self.tgt_idx) == len(self.measure)
        ):
            raise ShapeMismatchError(
                "src_idx, tgt_idx and measure must have equal lengths"
            )
        if len(self.src_idx) and (
            self.src_idx.min() < 0 or self.src_idx.max() >= len(source)
        ):
            raise PartitionError("src_idx out of range for source system")
        if len(self.tgt_idx) and (
            self.tgt_idx.min() < 0 or self.tgt_idx.max() >= len(target)
        ):
            raise PartitionError("tgt_idx out of range for target system")
        # |U^st| >= max(|U^s|, |U^t|) holds for true partitions of one
        # universe; not enforced because callers may overlay subsets.
        self._pair_lookup: dict[tuple[int, int], int] | None = None

    def __len__(self) -> int:
        return len(self.src_idx)

    @property
    def pair_lookup(self) -> dict[tuple[int, int], int]:
        """Dict mapping ``(i, j)`` source/target index pairs to unit index."""
        if self._pair_lookup is None:
            self._pair_lookup = {
                (int(i), int(j)): k
                for k, (i, j) in enumerate(zip(self.src_idx, self.tgt_idx))
            }
        return self._pair_lookup

    def area_dm(self) -> DisaggregationMatrix:
        """The overlap-measure DM -- the areal-weighting reference."""
        return DisaggregationMatrix.from_pairs(
            self.src_idx,
            self.tgt_idx,
            self.measure,
            self.source.labels,
            self.target.labels,
        )

    def dm_from_unit_values(self, values: ArrayLike) -> DisaggregationMatrix:
        """DM whose entry for intersection ``k`` is ``values[k]``.

        ``values`` is any per-intersection-unit aggregate (point counts,
        integrated density mass, ...).  This is how synthetic datasets
        become reference disaggregation matrices.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self),):
            raise ShapeMismatchError(
                f"values must have shape ({len(self)},), got {values.shape}"
            )
        return DisaggregationMatrix.from_pairs(
            self.src_idx,
            self.tgt_idx,
            values,
            self.source.labels,
            self.target.labels,
        )

    def dm_from_point_assignments(
        self,
        src_of_point: ArrayLike,
        tgt_of_point: ArrayLike,
        weights: ArrayLike | None = None,
    ) -> DisaggregationMatrix:
        """DM of point counts given per-point parent-unit indices.

        Points whose source or target index is negative (outside the
        universe) are dropped.  ``weights`` optionally gives each point a
        mass other than 1.
        """
        src = np.asarray(src_of_point, dtype=np.int64)
        tgt = np.asarray(tgt_of_point, dtype=np.int64)
        if src.shape != tgt.shape:
            raise ShapeMismatchError(
                "per-point source and target index arrays differ in shape"
            )
        if weights is None:
            weights = np.ones(len(src), dtype=float)
        else:
            weights = np.asarray(weights, dtype=float)
        keep = (src >= 0) & (tgt >= 0)
        return DisaggregationMatrix.from_pairs(
            src[keep],
            tgt[keep],
            weights[keep],
            self.source.labels,
            self.target.labels,
        )

    def aggregate_to_source(self, values: ArrayLike) -> FloatArray:
        """Sum per-intersection values up to source units."""
        values = np.asarray(values, dtype=float)
        out = np.zeros(len(self.source))
        np.add.at(out, self.src_idx, values)
        return out

    def aggregate_to_target(self, values: ArrayLike) -> FloatArray:
        """Sum per-intersection values up to target units (Eq. 9)."""
        values = np.asarray(values, dtype=float)
        out = np.zeros(len(self.target))
        np.add.at(out, self.tgt_idx, values)
        return out

    def __repr__(self) -> str:
        return (
            f"IntersectionUnits(|Us|={len(self.source)}, "
            f"|Ut|={len(self.target)}, |Ust|={len(self)})"
        )


def build_intersection(
    source: "UnitSystem",
    target: "UnitSystem",
    min_measure: float = 0.0,
) -> IntersectionUnits:
    """Overlay two unit systems of the same backend into U^st.

    Parameters
    ----------
    source, target:
        Unit systems implementing ``overlap_pairs``.
    min_measure:
        Drop intersections with measure at or below this threshold
        (numerical slivers from vector overlay).

    Returns
    -------
    IntersectionUnits
    """
    with _span(
        "intersection.build",
        n_source=len(source),
        n_target=len(target),
    ):
        src_idx, tgt_idx, measure = source.overlap_pairs(target)
        if min_measure > 0.0:
            keep = measure > min_measure
            src_idx, tgt_idx, measure = (
                src_idx[keep],
                tgt_idx[keep],
                measure[keep],
            )
        order = np.lexsort((tgt_idx, src_idx))
        return IntersectionUnits(
            source, target, src_idx[order], tgt_idx[order], measure[order]
        )

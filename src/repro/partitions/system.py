"""Unit systems: labelled partitions of a universe.

A :class:`UnitSystem` is the abstract interface every backend implements;
:class:`VectorUnitSystem` is the 2-D polygon backend built on
:mod:`repro.geometry`.  Raster, interval and box backends live in their
own subpackages but expose the same surface, so everything downstream
(disaggregation matrices, GeoAlign, baselines, the evaluation harness)
is backend-agnostic.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import PartitionError, ShapeMismatchError
from repro.geometry.region import Region
from repro.geometry.sindex import GridIndex

if TYPE_CHECKING:
    from repro.geometry.primitives import BoundingBox

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
OverlapTriplets = tuple[IntArray, IntArray, FloatArray]


class UnitSystem(abc.ABC):
    """A finite set of labelled, mutually disjoint units covering a universe.

    Subclasses provide geometry-specific overlap computation; everything
    else (labels, sizes, lookups) is shared here.
    """

    def __init__(self, labels: Iterable[object]) -> None:
        labels = [str(label) for label in labels]
        if len(set(labels)) != len(labels):
            dupes = sorted(
                {label for label in labels if labels.count(label) > 1}
            )
            raise PartitionError(
                f"unit labels must be unique; duplicated: {dupes[:5]}"
            )
        if not labels:
            raise PartitionError("a unit system needs at least one unit")
        self.labels = labels
        self._label_index = {label: i for i, label in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        """Position of ``label``; raises ``KeyError`` when absent."""
        return self._label_index[label]

    @abc.abstractmethod
    def measures(self) -> FloatArray:
        """Per-unit size (area / length / volume) as a float array."""

    @abc.abstractmethod
    def overlap_pairs(self, other: "UnitSystem") -> OverlapTriplets:
        """Pairwise overlap with another unit system of the same backend.

        Returns ``(src_idx, tgt_idx, measure)`` arrays listing every pair
        of units with positive overlap measure and the size of that
        overlap.  This is the geometric kernel from which intersection
        units and area disaggregation matrices are built.
        """

    def require_same_labels(
        self, values: ArrayLike, name: str = "values"
    ) -> FloatArray:
        """Validate that ``values`` has one entry per unit, return as array."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (len(self),):
            raise ShapeMismatchError(
                f"{name} must have shape ({len(self)},) matching the unit "
                f"system, got {arr.shape}"
            )
        return arr


class VectorUnitSystem(UnitSystem):
    """2-D unit system whose units are polygonal :class:`Region` objects.

    Parameters
    ----------
    labels:
        Unique unit names (zip codes, county names, ...).
    regions:
        One :class:`~repro.geometry.region.Region` per label.  Units must
        be interior-disjoint; :meth:`validate_partition` can verify that
        they also exactly tile a given universe box.
    """

    def __init__(
        self, labels: Iterable[object], regions: Iterable[Region]
    ) -> None:
        super().__init__(labels)
        regions = list(regions)
        if len(regions) != len(self.labels):
            raise ShapeMismatchError(
                f"{len(self.labels)} labels but {len(regions)} regions"
            )
        for label, region in zip(self.labels, regions):
            if not isinstance(region, Region):
                raise PartitionError(
                    f"unit {label!r} is not a Region (got {type(region)!r})"
                )
            if region.is_empty:
                raise PartitionError(f"unit {label!r} has an empty region")
        self.regions = regions
        self._index: GridIndex | None = None

    @property
    def bbox(self) -> "BoundingBox":
        """Bounding box over every unit."""
        box = self.regions[0].bbox
        for region in self.regions[1:]:
            box = box.union(region.bbox)
        return box

    @property
    def spatial_index(self) -> GridIndex:
        """Lazily built grid index over unit bounding boxes."""
        if self._index is None:
            self._index = GridIndex.bulk_load(
                {i: r.bbox for i, r in enumerate(self.regions)},
                extent=self.bbox,
            )
        return self._index

    def measures(self) -> FloatArray:
        return np.array([region.area for region in self.regions])

    def overlap_pairs(self, other: "UnitSystem") -> OverlapTriplets:
        if not isinstance(other, VectorUnitSystem):
            raise ShapeMismatchError(
                "can only overlay VectorUnitSystem with VectorUnitSystem, "
                f"got {type(other).__name__}"
            )
        index = other.spatial_index
        src_idx = []
        tgt_idx = []
        measure = []
        for i, region in enumerate(self.regions):
            for j in index.query(region.bbox):
                area = region.intersection_area(other.regions[j])
                if area > 0.0:
                    src_idx.append(i)
                    tgt_idx.append(j)
                    measure.append(area)
        return (
            np.asarray(src_idx, dtype=np.int64),
            np.asarray(tgt_idx, dtype=np.int64),
            np.asarray(measure, dtype=float),
        )

    def locate_points(self, points: ArrayLike) -> IntArray:
        """Unit index containing each point, or -1 for points outside all.

        Uses the spatial index for candidate pruning, then exact
        point-in-region tests.
        """
        pts = np.asarray(points, dtype=float)
        labels = np.full(len(pts), -1, dtype=np.int64)
        index = self.spatial_index
        for p in range(len(pts)):
            for j in index.query_point(pts[p]):
                if self.regions[j].contains_point(pts[p]):
                    labels[p] = j
                    break
        return labels

    def validate_partition(
        self, universe_box: "BoundingBox", rel_tol: float = 1e-6
    ) -> None:
        """Check the units tile ``universe_box``: areas sum to box area.

        Pairwise disjointness is not re-checked geometrically (it is
        O(n^2) clips); the area identity catches both gaps and overlaps
        simultaneously for systems that claim to partition the box.
        """
        total = float(self.measures().sum())
        expected = universe_box.area
        if abs(total - expected) > rel_tol * expected:
            raise PartitionError(
                f"unit areas sum to {total:.6g} but the universe has area "
                f"{expected:.6g}; the system is not a partition"
            )

    def __repr__(self) -> str:
        return (
            f"VectorUnitSystem(n={len(self)}, "
            f"area={float(self.measures().sum()):.6g})"
        )

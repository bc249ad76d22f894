"""Axis-aligned hyperrectangle unit systems in arbitrary dimension.

A :class:`HyperBox` is a product of half-open intervals; a
:class:`BoxUnitSystem` is a set of disjoint boxes.  Overlap volume between
boxes is exact (a product of per-axis overlaps), which makes this the
simplest backend exercising GeoAlign's any-dimension claim: the estimator
never sees anything but labels, vectors and DMs.

Grid systems (the common case: regular lattices at two different
resolutions, incongruent in every axis) have a dedicated constructor.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import GeometryError, PartitionError, ShapeMismatchError
from repro.partitions.system import UnitSystem


class HyperBox:
    """A half-open axis-aligned box ``[lo_d, hi_d)`` per dimension."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows, highs):
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if lows.shape != highs.shape or lows.ndim != 1:
            raise GeometryError(
                f"box bounds must be 1-D arrays of equal length, got "
                f"{lows.shape} and {highs.shape}"
            )
        if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
            raise GeometryError("box bounds must be finite")
        if np.any(highs <= lows):
            raise GeometryError(
                "box must have positive extent on every axis"
            )
        self.lows = lows
        self.highs = highs

    @property
    def ndim(self):
        return len(self.lows)

    @property
    def volume(self):
        return float(np.prod(self.highs - self.lows))

    def overlap_volume(self, other):
        """Exact intersection volume with another box (0.0 when disjoint)."""
        if other.ndim != self.ndim:
            raise GeometryError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )
        lo = np.maximum(self.lows, other.lows)
        hi = np.minimum(self.highs, other.highs)
        extents = hi - lo
        if np.any(extents <= 0):
            return 0.0
        return float(np.prod(extents))

    def contains_points(self, points):
        """Boolean mask: which ``(m, ndim)`` points fall inside."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.ndim:
            raise GeometryError(
                f"points must be (m, {self.ndim}), got {pts.shape}"
            )
        return np.all((pts >= self.lows) & (pts < self.highs), axis=1)

    def __repr__(self):
        spans = ", ".join(
            f"[{lo:g},{hi:g})" for lo, hi in zip(self.lows, self.highs)
        )
        return f"HyperBox({spans})"


class BoxUnitSystem(UnitSystem):
    """A unit system whose units are disjoint hyperboxes.

    Parameters
    ----------
    labels:
        Unique unit names.
    boxes:
        One :class:`HyperBox` per label, all of the same dimension.
    """

    def __init__(self, labels, boxes):
        super().__init__(labels)
        boxes = list(boxes)
        if len(boxes) != len(self.labels):
            raise ShapeMismatchError(
                f"{len(self.labels)} labels but {len(boxes)} boxes"
            )
        ndim = boxes[0].ndim
        for box in boxes:
            if box.ndim != ndim:
                raise PartitionError("all boxes must share one dimension")
        self.boxes = boxes
        self.ndim = ndim

    @classmethod
    def regular_grid(cls, lows, highs, shape, label_prefix="cell"):
        """Lattice of ``prod(shape)`` equal boxes over a bounding hyperbox.

        Cells are ordered lexicographically by their integer coordinates;
        labels are ``"{prefix}-i0-i1-..."``.
        """
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        shape = tuple(int(s) for s in shape)
        if len(shape) != len(lows):
            raise ShapeMismatchError(
                "shape must have one entry per dimension"
            )
        if any(s <= 0 for s in shape):
            raise PartitionError("grid shape entries must be positive")
        steps = (highs - lows) / np.asarray(shape, dtype=float)
        labels = []
        boxes = []
        for coords in itertools.product(*(range(s) for s in shape)):
            idx = np.asarray(coords, dtype=float)
            cell_lo = lows + idx * steps
            cell_hi = np.where(
                idx + 1 == np.asarray(shape), highs, lows + (idx + 1) * steps
            )
            labels.append(
                label_prefix + "-" + "-".join(str(c) for c in coords)
            )
            boxes.append(HyperBox(cell_lo, cell_hi))
        return cls(labels, boxes)

    def measures(self):
        return np.array([box.volume for box in self.boxes])

    def overlap_pairs(self, other):
        """Pairwise overlap volumes via per-axis sorted-interval pruning."""
        if not isinstance(other, BoxUnitSystem):
            raise ShapeMismatchError(
                "can only overlay BoxUnitSystem with BoxUnitSystem, got "
                f"{type(other).__name__}"
            )
        if other.ndim != self.ndim:
            raise ShapeMismatchError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )
        # Vectorised candidate pruning on the first axis, exact volume on
        # candidates.  Unit counts in experiments are modest (<10^4), so
        # the (pruned) pairwise check is comfortably fast.
        my_lo = np.array([b.lows for b in self.boxes])
        my_hi = np.array([b.highs for b in self.boxes])
        their_lo = np.array([b.lows for b in other.boxes])
        their_hi = np.array([b.highs for b in other.boxes])
        src_idx = []
        tgt_idx = []
        measure = []
        for i in range(len(self)):
            lo = np.maximum(my_lo[i], their_lo)
            hi = np.minimum(my_hi[i], their_hi)
            extents = hi - lo
            positive = np.all(extents > 0, axis=1)
            for j in np.flatnonzero(positive):
                src_idx.append(i)
                tgt_idx.append(int(j))
                measure.append(float(np.prod(extents[j])))
        return (
            np.asarray(src_idx, dtype=np.int64),
            np.asarray(tgt_idx, dtype=np.int64),
            np.asarray(measure, dtype=float),
        )

    def locate_points(self, points):
        """Unit index containing each point (-1 when outside all units)."""
        pts = np.asarray(points, dtype=float)
        labels = np.full(len(pts), -1, dtype=np.int64)
        for j, box in enumerate(self.boxes):
            unassigned = labels < 0
            if not np.any(unassigned):
                break
            inside = box.contains_points(pts[unassigned])
            target = np.flatnonzero(unassigned)[inside]
            labels[target] = j
        return labels

    def aggregate_points(self, points, weights=None):
        """Total point weight per unit (points outside all units dropped)."""
        idx = self.locate_points(points)
        keep = idx >= 0
        if weights is None:
            weights = np.ones(len(idx))
        else:
            weights = np.asarray(weights, dtype=float)
        out = np.zeros(len(self))
        np.add.at(out, idx[keep], weights[keep])
        return out

    def __repr__(self):
        return f"BoxUnitSystem(n={len(self)}, ndim={self.ndim})"

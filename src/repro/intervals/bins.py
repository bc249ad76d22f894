"""Interval unit systems over a 1-D universe.

An :class:`IntervalUnitSystem` is an ordered sequence of contiguous,
non-overlapping half-open intervals ``[edge_i, edge_{i+1})`` -- exactly a
histogram binning.  Overlap between two interval systems is computed with
a linear two-pointer sweep, so building the 1-D intersection structure is
O(|U^s| + |U^t|).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError, ShapeMismatchError
from repro.partitions.system import UnitSystem


class IntervalUnitSystem(UnitSystem):
    """Contiguous interval bins defined by ascending edges.

    Parameters
    ----------
    edges:
        Ascending array of ``n + 1`` bin edges defining ``n`` units.
    labels:
        Optional unit labels; defaults to ``"[lo, hi)"`` strings.
    """

    def __init__(self, edges, labels=None):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2:
            raise PartitionError(
                "interval system needs at least two ascending edges"
            )
        if not np.all(np.isfinite(edges)):
            raise PartitionError("interval edges must be finite")
        if not np.all(np.diff(edges) > 0):
            raise PartitionError("interval edges must be strictly ascending")
        if labels is None:
            labels = [
                f"[{lo:g}, {hi:g})" for lo, hi in zip(edges[:-1], edges[1:])
            ]
        super().__init__(labels)
        if len(self.labels) != len(edges) - 1:
            raise ShapeMismatchError(
                f"{len(edges) - 1} bins but {len(self.labels)} labels"
            )
        self.edges = edges

    @classmethod
    def uniform(cls, start, stop, n_bins, labels=None):
        """``n_bins`` equal-width bins spanning ``[start, stop)``."""
        return cls(np.linspace(start, stop, n_bins + 1), labels=labels)

    @property
    def lows(self):
        return self.edges[:-1]

    @property
    def highs(self):
        return self.edges[1:]

    def measures(self):
        """Bin widths."""
        return np.diff(self.edges)

    def span(self):
        """(universe_start, universe_end) covered by the system."""
        return float(self.edges[0]), float(self.edges[-1])

    def overlap_pairs(self, other):
        """Two-pointer sweep over both edge sequences.

        The systems may cover different spans; only the common span
        produces intersection units.
        """
        if not isinstance(other, IntervalUnitSystem):
            raise ShapeMismatchError(
                "can only overlay IntervalUnitSystem with "
                f"IntervalUnitSystem, got {type(other).__name__}"
            )
        src_idx = []
        tgt_idx = []
        measure = []
        i = j = 0
        while i < len(self) and j < len(other):
            lo = max(self.edges[i], other.edges[j])
            hi = min(self.edges[i + 1], other.edges[j + 1])
            if hi > lo:
                src_idx.append(i)
                tgt_idx.append(j)
                measure.append(hi - lo)
            # Advance whichever interval ends first.
            if self.edges[i + 1] <= other.edges[j + 1]:
                i += 1
            else:
                j += 1
        return (
            np.asarray(src_idx, dtype=np.int64),
            np.asarray(tgt_idx, dtype=np.int64),
            np.asarray(measure, dtype=float),
        )

    def locate_points(self, points):
        """Bin index of each scalar point, -1 outside the span."""
        pts = np.asarray(points, dtype=float).ravel()
        idx = np.searchsorted(self.edges, pts, side="right") - 1
        idx[(pts < self.edges[0]) | (pts >= self.edges[-1])] = -1
        return idx.astype(np.int64)

    def aggregate_points(self, points, weights=None):
        """Histogram: total point weight per bin (outside points dropped)."""
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
        lo, hi = self.span()
        return f"IntervalUnitSystem(n={len(self)}, span=[{lo:g}, {hi:g}))"

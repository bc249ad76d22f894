"""Reference attributes: the ancillary data GeoAlign learns from.

A :class:`Reference` bundles what the paper assumes is available for each
reference attribute (section 3.4): its aggregate vector in source units
and its disaggregation matrix between source and target units.  The
target-level aggregate vector is implied by the DM's column sums.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.errors import ShapeMismatchError, ValidationError
from repro.partitions.dm import DisaggregationMatrix
from repro.utils.arrays import as_nonnegative_vector, is_zero
from repro.utils.fingerprint import combine_fingerprints, fingerprint_array

FloatArray = NDArray[np.float64]


def _max_normalized(name: str, vector: FloatArray) -> tuple[float, FloatArray]:
    """``(peak, vector / peak)``, the row read-only; the peak must be
    positive."""
    peak = float(vector.max())
    if peak <= 0:
        raise ValidationError(
            f"reference {name!r} cannot be normalised: max is 0"
        )
    row = vector / peak
    row.flags.writeable = False
    return peak, row


class Reference:
    """One reference attribute: source aggregates + disaggregation matrix.

    Parameters
    ----------
    name:
        Human-readable attribute name ("Population", "USPS Residential
        Address", ...), used in reports and error messages.
    source_vector:
        Aggregates of the reference in source units, ``a^s_r``.  May
        disagree slightly with the DM's row sums (that is exactly the
        situation of the paper's noise-robustness experiment, §4.4.1).
    dm:
        The reference's :class:`DisaggregationMatrix` between the source
        and target unit systems.
    """

    __slots__ = ("name", "source_vector", "dm", "_fingerprint", "_normalized")

    name: str
    source_vector: FloatArray
    dm: DisaggregationMatrix
    _fingerprint: str | None
    _normalized: tuple[float, FloatArray] | None

    def __init__(
        self,
        name: object,
        source_vector: ArrayLike,
        dm: DisaggregationMatrix,
    ) -> None:
        if not isinstance(dm, DisaggregationMatrix):
            raise ValidationError(
                f"reference {name!r}: dm must be a DisaggregationMatrix, "
                f"got {type(dm).__name__}"
            )
        vector = as_nonnegative_vector(
            source_vector, name=f"reference {name!r} source_vector"
        )
        if vector.shape[0] != dm.shape[0]:
            raise ShapeMismatchError(
                f"reference {name!r}: source vector has {vector.shape[0]} "
                f"entries but the DM has {dm.shape[0]} source rows"
            )
        if vector.sum() <= 0:
            raise ValidationError(
                f"reference {name!r}: source vector is identically zero"
            )
        self.name = str(name)
        self.source_vector = vector
        self.dm = dm
        self._fingerprint = None
        self._normalized = None

    @classmethod
    def from_dm(cls, name: object, dm: DisaggregationMatrix) -> "Reference":
        """Build a reference whose source vector is the DM's row sums.

        This is the self-consistent case: the aggregate vector and the
        crosswalk file describe the same underlying data.
        """
        return cls(name, dm.row_sums(), dm)

    @property
    def target_vector(self) -> FloatArray:
        """Aggregates of the reference in target units (DM column sums)."""
        return self.dm.col_sums()

    def with_source_vector(self, new_vector: ArrayLike) -> "Reference":
        """Copy with a replaced source vector (used by noise injection)."""
        return Reference(self.name, new_vector, self.dm)

    def normalized_source(self) -> FloatArray:
        """Max-normalised source vector ``a'^s_r`` (paper §3.4).

        Computed on the first call and kept, read-only: every reference
        stack over this reference reads the same row.  References are
        immutable by convention, as :meth:`fingerprint` assumes.
        """
        return self._peak_and_row()[1]

    @property
    def peak(self) -> float:
        """The source vector's maximum, by which
        :meth:`normalized_source` divides it."""
        return self._peak_and_row()[0]

    def _peak_and_row(self) -> tuple[float, FloatArray]:
        if self._normalized is None:
            self._normalized = _max_normalized(self.name, self.source_vector)
        return self._normalized

    def fingerprint(self) -> str:
        """Content fingerprint (name + source vector + DM contents).

        Part of the reference-stack and model-store keys.  A perturbed
        copy from :meth:`with_source_vector` fingerprints differently,
        so a model fitted on the original never shares its key.
        """
        if self._fingerprint is None:
            self._fingerprint = combine_fingerprints(
                "reference",
                self.name,
                fingerprint_array(self.source_vector),
                self.dm.fingerprint(),
            )
        return self._fingerprint

    def correlation_with(self, other_vector: ArrayLike) -> float:
        """Pearson correlation with another source-level vector.

        Used by the reference-selection experiment (§4.4.2) to rank
        references by their relationship with the objective attribute.
        Returns 0.0 when either vector is constant.
        """
        other = np.asarray(other_vector, dtype=float)
        if other.shape != self.source_vector.shape:
            raise ShapeMismatchError(
                "correlation requires vectors over the same source units"
            )
        mine = self.source_vector
        if is_zero(float(mine.std())) or is_zero(float(other.std())):
            return 0.0
        return float(np.corrcoef(mine, other)[0, 1])

    def __repr__(self) -> str:
        return (
            f"Reference({self.name!r}, |Us|={len(self.source_vector)}, "
            f"dm_nnz={self.dm.nnz})"
        )

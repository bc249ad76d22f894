"""The dense-algebra Eq. 14 blend the test suite checks the library against.

The library never forms ``sum_k w_k * DM_k`` as a matrix: the batch
engine blends per-entry value stacks (:mod:`repro.core.sparse_stack`)
and predicts through per-reference operators.  :func:`blend` is the
direct route, one scipy sparse sum over labelled
:class:`~repro.partitions.dm.DisaggregationMatrix` objects, for tests
and benches that need the blended matrix itself.  The module has no
``test_`` prefix, so pytest imports it without collecting it.
"""

import numpy as np

from repro.errors import ShapeMismatchError, ValidationError
from repro.partitions.dm import DisaggregationMatrix


def blend(dms, weights):
    """Weighted sum ``sum_k w_k * DM_k`` of same-labelled matrices.

    This is the numerator of the paper's Eq. 14.  Weights may be any
    non-negative floats; GeoAlign passes simplex weights.
    """
    dms = list(dms)
    weights = np.asarray(weights, dtype=float)
    if len(dms) == 0:
        raise ValidationError("blend needs at least one matrix")
    if weights.shape != (len(dms),):
        raise ShapeMismatchError(
            f"{len(dms)} matrices but weight vector of shape "
            f"{weights.shape}"
        )
    first = dms[0]
    acc = first.matrix * float(weights[0])
    for dm, w in zip(dms[1:], weights[1:]):
        first._require_same_labels(dm)
        if w != 0.0:  # repro-lint: allow[float-eq] exact-zero skip is a no-op optimisation; tiny weights must still contribute
            acc = acc + dm.matrix * float(w)
    return DisaggregationMatrix(acc, first.source_labels, first.target_labels)

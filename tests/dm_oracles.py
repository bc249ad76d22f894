"""Direct routes to the Eq. 14 blend, the Eq. 17 totals and the Eq. 15
stack arrays, for tests.

The library never forms ``sum_k w_k * DM_k`` as a matrix: the batch
engine blends per-entry value stacks (:mod:`repro.core.sparse_stack`)
and predicts through per-reference operators.  :func:`blend` is the
direct route, one scipy sparse sum over labelled
:class:`~repro.partitions.dm.DisaggregationMatrix` objects, for tests
and benches that need the blended matrix itself.
:func:`rescaled_totals` is the Eq. 17 reference for
``ReferenceStack.rescaled_totals``: the same products over explicit
target-major CSR copies of each ``D_j^T`` (:func:`transposed_operator`)
in place of the library's views of the DMs' own entries.
:func:`stack_arrays` is the one-formula reference for what a
``ReferenceStack`` computes from its references' source vectors, where
the library reads each reference's own normalised row.  The module has
no ``test_`` prefix, so pytest imports it without collecting it.
"""

import numpy as np
from scipy import sparse

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


def transposed_operator(matrix):
    """``D^T`` as a ``(t, m)`` CSR copy with source rows ascending within
    each target.

    ``D`` is first put in canonical CSR (duplicates summed, indices
    sorted).  The CSC form of ``D`` is the CSR form of ``D^T``, and
    converting a matrix whose values are the entries' own positions
    yields the transposing permutation (SciPy's counting sort keeps
    source rows ascending within each target); gathering ``D``'s values
    through it fills the copy.
    """
    csr = sparse.csr_matrix(matrix, dtype=float, copy=True)
    csr.sum_duplicates()
    csr.sort_indices()
    m, t = csr.shape
    by_target = sparse.csr_matrix(
        (np.arange(csr.nnz, dtype=float), csr.indices, csr.indptr),
        shape=(m, t),
    ).tocsc()
    order = by_target.data.astype(np.intp)
    return sparse.csr_matrix(
        (csr.data[order], by_target.indices, by_target.indptr), shape=(t, m)
    )


def rescaled_totals(matrices, blend_weights, factors):
    """Eq. 16/17 totals ``sum_j blend_weights[:, j] * (factors @ D_j)``.

    Each product runs over :func:`transposed_operator`, so every target
    adds its source rows in ascending order.  The weights are applied
    on the side of each product that ``ReferenceStack.rescaled_totals``
    picks (the ``(m, n)`` factors when ``m < t``, else the ``(t, n)``
    partial totals), and the references are added in ascending order,
    skipping those weighted zero for every attribute, so the result is
    bit for bit the library's.
    """
    n_attrs, m = factors.shape
    t = matrices[0].shape[1]
    rhs = np.ascontiguousarray(factors.T)
    totals = None
    for j, matrix in enumerate(matrices):
        weights = blend_weights[:, j]
        if not weights.any():
            continue
        operator = transposed_operator(matrix)
        if m < t:
            part = operator @ (rhs * weights)
        else:
            part = operator @ rhs
            part *= weights
        totals = part if totals is None else totals + part
    if totals is None:
        return np.zeros((n_attrs, t))
    return np.ascontiguousarray(totals.T)


def stack_arrays(references, normalize=True):
    """``(design, scales, gram, source_vectors)`` of a reference stack.

    One formula over the stacked source vectors: their row maxima are
    the scales (1.0 each without ``normalize``), each row is divided by
    its maximum, and the design is the transposed copy of the result,
    with ``gram = design.T @ design``.  A zero maximum raises the
    library's ``ValidationError``.
    """
    source_vectors = np.vstack([ref.source_vector for ref in references])
    if normalize:
        scales = source_vectors.max(axis=1)
        for ref, peak in zip(references, scales):
            if peak <= 0:
                raise ValidationError(
                    f"reference {ref.name!r} cannot be normalised: max is 0"
                )
        scaled = source_vectors / scales[:, np.newaxis]
    else:
        scales = np.ones(len(references))
        scaled = source_vectors
    design = scaled.T.copy()
    return design, scales, design.T @ design, source_vectors

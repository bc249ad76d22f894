"""Micro-benchmarks of the four SparseDMStack kernels (Eq. 14-17).

The batch engine's per-fit cost is dominated by four entry-level
kernels -- blend, row_sums, rescale, reaggregate -- so this bench times
each one in isolation at 10x the batch bench's attribute count, on both
a sparse-mode stack (unaligned banded references) and the same data
forced dense, and prints the timings.  ``BENCH_kernels.json`` records
the resident sizes of both stacks for the regression gate; the timings
stay in the report, as perfbench owns wall time.  Correctness is pinned
against the dense oracle at 1e-12 inside the same run, so a kernel can
never get faster by getting wrong.
"""

import time

import numpy as np
from scipy import sparse

from repro.core.sparse_stack import SparseDMStack
from repro.experiments.reporting import save_bench_json
from repro.utils.rng import as_rng

#: 10x the batch bench's 32-attribute table.
N_ATTRIBUTES = 320

#: Source / target unit counts of the kernel universe (scaled by
#: ``REPRO_BENCH_SCALE`` like every other bench).
N_SOURCES = 3_000
N_TARGETS = 30_000

#: Band width per source row; per-reference offsets keep the patterns
#: unaligned so the general CSR mode is the one under test.
BAND_WIDTH = 10


def _banded_matrices(m, t, k=3, seed=20180607):
    rng = as_rng(seed)
    mats = []
    rows = np.repeat(np.arange(m, dtype=np.int64), BAND_WIDTH)
    for r in range(k):
        starts = np.minimum(
            (np.arange(m, dtype=np.int64) * t) // m + r * 2 * BAND_WIDTH,
            t - BAND_WIDTH,
        )
        cols = (
            starts[:, None] + np.arange(BAND_WIDTH, dtype=np.int64)
        ).ravel()
        data = rng.random(m * BAND_WIDTH) + 0.05
        mats.append(
            sparse.csr_matrix((data, (rows, cols)), shape=(m, t))
        )
    return mats


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_kernel_suite(bench_scale, report):
    m = max(int(N_SOURCES * bench_scale), 50)
    t = max(int(N_TARGETS * bench_scale), 500)
    n_attrs = max(int(N_ATTRIBUTES * bench_scale), 8)
    mats = _banded_matrices(m, t)
    stack = SparseDMStack.from_matrices(mats, m, t, dense=False)
    assert stack.mode == "sparse"
    dense_stack = SparseDMStack.from_matrices(mats, m, t, dense=True)

    rng = as_rng(1)
    weights = rng.random((n_attrs, stack.n_references))
    factors = rng.random((n_attrs, m)) + 0.5

    blended, blend_seconds = _timed(stack.blend, weights)
    dense_blended, dense_blend_seconds = _timed(dense_stack.blend, weights)
    sums, row_sums_seconds = _timed(stack.row_sums, blended)
    scaled, rescale_seconds = _timed(
        stack.scale_rows_inplace, blended.copy(), factors
    )
    merged, reaggregate_seconds = _timed(stack.reaggregate, scaled)

    # Oracle pinning: the timed kernels against dense arithmetic.
    oracle_values = dense_stack.values
    oracle_blend = weights @ oracle_values
    scale = float(np.abs(oracle_blend).max())
    assert float(np.abs(blended - oracle_blend).max()) <= 1e-12 * scale
    assert float(np.abs(dense_blended - oracle_blend).max()) <= 1e-12 * scale
    oracle_sums = np.zeros((n_attrs, m))
    np.add.at(oracle_sums, (slice(None), stack.entry_rows), oracle_blend)
    assert np.allclose(sums, oracle_sums, rtol=1e-12, atol=1e-12)

    report(
        f"kernels: {n_attrs} attrs, {m}x{t} units, nnz={stack.nnz}, "
        f"density={stack.density:.3f} | blend={blend_seconds * 1e3:.2f}ms "
        f"(dense {dense_blend_seconds * 1e3:.2f}ms) "
        f"row_sums={row_sums_seconds * 1e3:.2f}ms "
        f"rescale={rescale_seconds * 1e3:.2f}ms "
        f"reaggregate={reaggregate_seconds * 1e3:.2f}ms | "
        f"resident {stack.resident_bytes / 1e6:.1f}MB vs dense "
        f"{dense_stack.resident_bytes / 1e6:.1f}MB"
    )
    save_bench_json(
        "kernels",
        {},
        meta={
            "n_attributes": n_attrs,
            "n_sources": m,
            "n_targets": t,
            "nnz": stack.nnz,
            "density": stack.density,
            "scale": bench_scale,
        },
        memory={
            "sparse_resident_bytes": stack.resident_bytes,
            "dense_resident_bytes": dense_stack.resident_bytes,
        },
    )
    # The sparse representation must stay materially smaller than the
    # dense (k, nnz) stack it replaced on this low-density universe.
    assert stack.resident_bytes < dense_stack.resident_bytes

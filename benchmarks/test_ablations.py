"""Ablations of GeoAlign's design choices (DESIGN.md §5).

* source-level max-normalisation on vs off;
* the Eq. 14 denominator under noisy references (row-sums vs the
  literal source-vectors reading) -- the distinction EXPERIMENTS.md
  discusses for Fig. 7;
* per-row volume rescaling vs a naive globally-scaled blend.
"""

import numpy as np

from repro.core.geoalign import GeoAlign
from repro.experiments.noise import perturb_reference
from repro.metrics.errors import nrmse, rmse
from repro.utils.rng import as_rng
from tests.dm_oracles import blend


def _mean_nrmse(world, factory):
    references = world.references()
    values = []
    for test in references:
        pool = [r for r in references if r.name != test.name]
        estimate = factory().fit_predict(pool, test.source_vector)
        values.append(nrmse(estimate, test.dm.col_sums()))
    return float(np.mean(values))


def test_ablation_normalization(benchmark, ny_world, report):
    """Max-normalisation (paper §3.4) vs raw-scale weight learning.

    On same-scale data the two modes score similarly.  The paper's
    rationale for normalising is *scale robustness*: with the simplex
    constraint, raw-scale weights cannot compensate for a reference
    measured in different units, so re-expressing one reference (e.g.
    addresses in thousands) wrecks the un-normalised fit while the
    normalised estimator is exactly invariant.
    """
    from repro.core.reference import Reference
    from repro.partitions.dm import DisaggregationMatrix

    with_norm = _mean_nrmse(ny_world, lambda: GeoAlign(normalize=True))
    without = _mean_nrmse(ny_world, lambda: GeoAlign(normalize=False))

    # Controlled mixture: the objective is an exact 50/50 blend of two
    # references, one of which is re-expressed in 1000x smaller units.
    # The simplex constraint makes the raw-scale weights (0.5, 500)
    # infeasible, so only the normalised estimator recovers the blend.
    references = ny_world.references()
    ref_a, ref_b = references[0], references[1]
    objective = 0.5 * ref_a.source_vector + 0.5 * ref_b.source_vector
    truth = 0.5 * ref_a.dm.col_sums() + 0.5 * ref_b.dm.col_sums()
    ref_b_kilo = Reference(
        ref_b.name,
        ref_b.source_vector * 1e-3,
        DisaggregationMatrix(
            ref_b.dm.matrix * 1e-3,
            ref_b.dm.source_labels,
            ref_b.dm.target_labels,
        ),
    )
    norm_rescaled = nrmse(
        GeoAlign(normalize=True).fit_predict(
            [ref_a, ref_b_kilo], objective
        ),
        truth,
    )
    raw_rescaled = nrmse(
        GeoAlign(normalize=False).fit_predict(
            [ref_a, ref_b_kilo], objective
        ),
        truth,
    )
    report(
        "normalisation ablation (NY): same-scale mean NRMSE "
        f"normalised={with_norm:.4f} vs raw={without:.4f}; "
        f"mixed-units mixture NRMSE normalised={norm_rescaled:.6f} vs "
        f"raw={raw_rescaled:.6f}"
    )
    # Same-scale data: comparable accuracy either way.
    assert with_norm <= without * 1.25
    # Mixed units: normalisation is what keeps GeoAlign correct.
    assert norm_rescaled < 0.5 * raw_rescaled

    test, pool = references[0], references[1:]
    benchmark(
        lambda: GeoAlign(normalize=False).fit_predict(
            pool, test.source_vector
        )
    )


def test_ablation_denominator_under_noise(benchmark, us_world, report):
    """Fig. 7's hidden design choice: Eq. 14's denominator.

    On self-consistent references both denominators coincide; under
    source-vector noise only "row-sums" keeps volume preservation exact.
    We measure the RMSE-deviation ratio both ways at 20 % noise.
    """
    rng = as_rng(13)
    references = us_world.references()
    test, pool = references[0], references[1:]
    truth = test.dm.col_sums()

    def deviation(denominator):
        base = GeoAlign(denominator=denominator).fit_predict(
            pool, test.source_vector
        )
        noisy_pool = [perturb_reference(r, 20, rng) for r in pool]
        noisy = GeoAlign(denominator=denominator).fit_predict(
            noisy_pool, test.source_vector
        )
        return rmse(noisy, truth) / rmse(base, truth)

    row_sums = deviation("row-sums")
    source_vectors = deviation("source-vectors")
    report(
        "denominator ablation at 20% noise "
        f"(RMSE deviation ratio): row-sums={row_sums:.3f}, "
        f"source-vectors={source_vectors:.3f}"
    )
    assert row_sums < source_vectors  # row-sums absorbs the noise

    benchmark(
        lambda: GeoAlign(denominator="source-vectors").fit_predict(
            pool, test.source_vector
        )
    )


def test_ablation_volume_rescaling(benchmark, ny_world, report):
    """Per-row volume rescaling (Eq. 14/16) vs a naive global blend.

    The naive variant blends the reference DMs with the learned weights
    and scales once globally to the objective total -- mass conserving
    but not volume preserving.  The paper cites volume preservation as
    the property separating good extensive methods [Lam 1983].
    """
    references = ny_world.references()
    volume_scores = []
    naive_scores = []
    for test in references:
        pool = [r for r in references if r.name != test.name]
        truth = test.dm.col_sums()
        estimator = GeoAlign().fit(pool, test.source_vector)
        volume_scores.append(nrmse(estimator.predict(), truth))

        estimator.predict_dm()  # materialises blend_weights_
        blended = blend(
            [r.dm for r in pool], estimator.blend_weights_
        )
        naive = blended.col_sums() * (
            test.source_vector.sum() / blended.total()
        )
        naive_scores.append(nrmse(naive, truth))
    volume_mean = float(np.mean(volume_scores))
    naive_mean = float(np.mean(naive_scores))
    report(
        "volume-rescaling ablation (NY, mean NRMSE): "
        f"per-row rescale={volume_mean:.4f}, naive blend={naive_mean:.4f}"
    )
    assert volume_mean < naive_mean

    test, pool = references[0], references[1:]
    benchmark(
        lambda: GeoAlign().fit_predict(pool, test.source_vector)
    )

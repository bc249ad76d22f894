"""Figure 5: NRMSE of GeoAlign vs dasymetric methods, both universes.

Regenerates the full cross-validated comparison of §4.2 and prints the
per-dataset NRMSE table (the bars of Fig. 5a/5b) plus the areal-
weighting ratios reported in the paper's text.  The benchmarked kernel
is one complete GeoAlign fold at the universe's full size.

Paper expectations (shape): GeoAlign <= the best dasymetric method on
nearly every dataset; no single dasymetric method is uniformly good;
areal weighting is out of the running (>15x NY / >50x US in the paper's
text, large multiples here).
"""

import numpy as np

from repro.core.geoalign import GeoAlign
from repro.experiments.effectiveness import run_effectiveness
from repro.experiments.reporting import save_bench_json


def _bench_one_fold(benchmark, world):
    references = world.references()
    test = references[0]
    pool = references[1:]

    def fold():
        return GeoAlign().fit_predict(pool, test.source_vector)

    estimates = benchmark(fold)
    assert len(estimates) == len(world.counties)


def _save_bench(name, result, bench_scale):
    """Persist the figure's error metrics for the gate."""
    table = result.nrmse_table()
    geoalign = [row["GeoAlign"] for row in table.values()]
    save_bench_json(
        name,
        {
            "geoalign_mean_nrmse": float(np.mean(geoalign)),
            "geoalign_max_nrmse": float(np.max(geoalign)),
        },
        meta={"universe": result.universe, "scale": bench_scale},
    )


def test_fig5a_new_york(benchmark, ny_world, bench_scale, report):
    result = run_effectiveness(ny_world)
    report(result.to_text())
    _save_bench("fig5a", result, bench_scale)

    # Heavy-tailed NRMSE statistics need units to settle: strict at
    # paper scale, tolerant on shrunken quick-pass worlds.
    slack = 1.0 if bench_scale >= 0.5 else 1.8
    table = result.nrmse_table()
    geoalign_mean = np.mean(
        [row["GeoAlign"] for row in table.values()]
    )
    for method in result.crossval.methods():
        if method in ("GeoAlign", "areal-weighting"):
            continue
        method_mean = np.mean(
            [row[method] for row in table.values() if method in row]
        )
        assert geoalign_mean <= method_mean * slack
    assert result.areal_ratio_mean > 3.0 / slack

    _bench_one_fold(benchmark, ny_world)


def test_fig5b_united_states(benchmark, us_world, bench_scale, report):
    result = run_effectiveness(us_world)
    report(result.to_text())
    _save_bench("fig5b", result, bench_scale)

    slack = 1.0 if bench_scale >= 0.5 else 2.0
    table = result.nrmse_table()
    # The paper's named failure cases: every dasymetric method breaks on
    # the area and uninhabited-places datasets while GeoAlign holds up.
    for dataset in ("Area (Sq. Miles)", "USA Uninhabited Places"):
        row = table[dataset]
        dasy = [v for k, v in row.items() if k.startswith("dasymetric")]
        assert min(dasy) > 2.0 / slack * row["GeoAlign"]

    _bench_one_fold(benchmark, us_world)

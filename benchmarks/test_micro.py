"""Micro-benchmarks of the substrates under the experiments.

Not a paper figure -- these watch the building blocks whose costs the
paper's §4.3 analysis attributes runtime to: sparse DM algebra (blend +
row rescale), overlay construction (vector clipping vs raster
tabulation), Voronoi partition construction, and the baselines.
"""

import numpy as np
import pytest

from repro.core.baselines import Dasymetric
from repro.core.pycnophylactic import Pycnophylactic
from repro.geometry.primitives import BoundingBox
from repro.geometry.region import Region
from repro.geometry.voronoi import voronoi_partition
from repro.metrics.errors import nrmse
from repro.partitions.intersection import build_intersection
from repro.partitions.system import VectorUnitSystem
from repro.utils.rng import as_generator
from tests.dm_oracles import blend


def test_dm_blend_and_rescale_sparse(benchmark, us_world):
    """The §4.3 hot path: blend nine US-scale sparse DMs, rescale rows."""
    references = us_world.references()
    dms = [r.dm for r in references[1:]]
    weights = np.full(len(dms), 1.0 / len(dms))
    totals = references[0].source_vector

    def kernel():
        blended = blend(dms, weights)
        return blended.rescale_rows(totals)

    result = benchmark(kernel)
    assert result.shape == dms[0].shape


def test_dm_blend_dense_representation(benchmark, us_world, report):
    """DESIGN.md ablation: dense DM representation at US scale.

    The paper stores DMs sparse and ties runtime to nnz; the dense
    variant is benchmarked for comparison (same blend + rescale).
    """
    references = us_world.references()
    dms = [r.dm for r in references[1:4]]  # a subset: dense is heavy
    dense = [dm.to_dense() for dm in dms]
    weights = np.full(len(dms), 1.0 / len(dms))
    totals = references[0].source_vector

    def kernel():
        blended = sum(w * d for w, d in zip(weights, dense))
        rows = blended.sum(axis=1)
        factors = np.where(rows > 0, totals / np.maximum(rows, 1e-300), 0.0)
        return blended * factors[:, None]

    result = benchmark(kernel)
    nnz_fraction = dms[0].nnz / (dms[0].shape[0] * dms[0].shape[1])
    report(
        f"dense DM ablation: density={nnz_fraction:.5f} "
        f"({dms[0].nnz} of {dms[0].shape[0] * dms[0].shape[1]} cells)"
    )
    assert result.shape == dms[0].shape


def test_raster_overlay(benchmark, us_world):
    """Raster joint tabulation at US scale (the fast overlay path)."""
    values = us_world.dataset_cell_values["Population"]

    def kernel():
        return us_world.zips.joint_tabulate(us_world.counties, values)

    src, tgt, mass = benchmark(kernel)
    assert mass.sum() == pytest.approx(
        values[
            (us_world.zips.zone_of_cell >= 0)
            & (us_world.counties.zone_of_cell >= 0)
        ].sum()
    )


@pytest.fixture(scope="module")
def vector_geography():
    rng = as_generator(4)
    box = BoundingBox(0, 0, 12, 9)
    zip_seeds = rng.uniform([0.1, 0.1], [11.9, 8.9], size=(400, 2))
    county_seeds = rng.uniform([1, 1], [11, 8], size=(25, 2))
    zips = VectorUnitSystem(
        [f"z{i}" for i in range(400)],
        [Region([c]) for c in voronoi_partition(zip_seeds, box)],
    )
    counties = VectorUnitSystem(
        [f"c{i}" for i in range(25)],
        [Region([c]) for c in voronoi_partition(county_seeds, box)],
    )
    return box, zip_seeds, zips, counties


def test_vector_overlay(benchmark, vector_geography):
    """Exact polygon-clipping overlay, 400 x 25 Voronoi units."""
    box, _, zips, counties = vector_geography
    overlay = benchmark(lambda: build_intersection(zips, counties))
    assert overlay.measure.sum() == pytest.approx(box.area, rel=1e-6)


def test_voronoi_partition_build(benchmark):
    """Bounded Voronoi construction, 2,000 seeds (NY-ish zip count)."""
    rng = as_generator(11)
    box = BoundingBox(0, 0, 10, 8)
    seeds = rng.uniform([0.01, 0.01], [9.99, 7.99], size=(2000, 2))
    cells = benchmark.pedantic(
        lambda: voronoi_partition(seeds, box), rounds=3, iterations=1
    )
    from repro.geometry.primitives import polygon_area

    assert sum(polygon_area(c) for c in cells) == pytest.approx(box.area)


def test_baseline_dasymetric(benchmark, us_world):
    """Single-reference dasymetric at US scale (the paper's comparator)."""
    references = us_world.references()
    test = references[0]
    population = us_world.reference_for("Population")
    estimate = benchmark(
        lambda: Dasymetric(population).fit_predict(test.source_vector)
    )
    assert len(estimate) == len(us_world.counties)


def test_baseline_pycnophylactic(benchmark, ny_world, report):
    """Tobler's intensive method vs GeoAlign on one NY fold.

    The related-work extension: accuracy + cost of the classic
    geometry-based method next to the reference-based crosswalk.
    """
    from repro.core.geoalign import GeoAlign

    references = ny_world.references()
    test, pool = references[0], references[1:]
    truth = test.dm.col_sums()

    model = Pycnophylactic(
        ny_world.zips, ny_world.counties, iterations=20
    )
    estimate = benchmark.pedantic(
        lambda: model.fit_predict(test.source_vector),
        rounds=2,
        iterations=1,
    )
    pycno = nrmse(estimate, truth)
    geo = nrmse(
        GeoAlign().fit_predict(pool, test.source_vector), truth
    )
    report(
        f"pycnophylactic vs GeoAlign ({test.name}): "
        f"pycno NRMSE={pycno:.4f}, GeoAlign NRMSE={geo:.4f}"
    )
    assert geo <= pycno  # references beat smoothness here

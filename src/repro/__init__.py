"""GeoAlign: interpolating aggregates over unaligned partitions.

A full reproduction of Song, Koutra, Mani & Jagadish (EDBT 2018),
including the GeoAlign multi-reference crosswalk, its baselines, the
geometry / raster / interval / box substrates, a synthetic data generator
mirroring the paper's datasets, and the complete evaluation harness.

Quickstart
----------
>>> import numpy as np
>>> from repro import GeoAlign, Reference, DisaggregationMatrix
>>> dm = DisaggregationMatrix(
...     [[2.0, 0.0], [1.0, 1.0]], ["z1", "z2"], ["A", "B"])
>>> ref = Reference.from_dm("population", dm)
>>> GeoAlign().fit([ref], [10.0, 4.0]).predict()
array([12.,  2.])
"""

from repro.core.geoalign import GeoAlign
from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.shard import ShardedAligner, ShardPlan, plan_shards
from repro.core.baselines import ArealWeighting, Dasymetric
from repro.core.reference import Reference
from repro.core.solver import (
    simplex_lstsq,
    simplex_lstsq_from_gram,
    project_to_simplex,
)
from repro.partitions.dm import DisaggregationMatrix
from repro.partitions.intersection import IntersectionUnits, build_intersection
from repro.partitions.system import UnitSystem, VectorUnitSystem
from repro.partitions.crosswalk import read_crosswalk_csv, write_crosswalk_csv
from repro.metrics.errors import mae, nrmse, rmse

__version__ = "1.0.0"

__all__ = [
    "GeoAlign",
    "BatchAligner",
    "ReferenceStack",
    "ShardedAligner",
    "ShardPlan",
    "plan_shards",
    "ArealWeighting",
    "Dasymetric",
    "Reference",
    "simplex_lstsq",
    "simplex_lstsq_from_gram",
    "project_to_simplex",
    "DisaggregationMatrix",
    "IntersectionUnits",
    "build_intersection",
    "UnitSystem",
    "VectorUnitSystem",
    "read_crosswalk_csv",
    "write_crosswalk_csv",
    "rmse",
    "nrmse",
    "mae",
    "__version__",
]

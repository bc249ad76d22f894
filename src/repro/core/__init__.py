"""The paper's primary contribution: GeoAlign and its baselines.

``solver``
    Simplex-constrained least squares (paper Eq. 15) with three
    independent from-scratch solvers plus a scipy cross-check.
``geoalign``
    The three-step GeoAlign estimator (Algorithm 1): the one-attribute
    front over ``batch``.
``batch``
    The batched multi-attribute engine, the one implementation of
    Algorithm 1: N objectives against one shared reference stack, with
    the design/Gram and reference-DM work done once.
``shard``
    The sharded map-reduce engine: the batch computation partitioned
    into boundary-owned shards, mapped over a process pool and reduced
    back to the monolithic answer (globally volume-preserving).
``baselines``
    Areal weighting, the single-reference dasymetric method, and a
    target-level regression baseline from the related-work taxonomy.
``pycnophylactic``
    Tobler's (1979) smooth volume-preserving raster interpolation, the
    classic intensive method, included as a related-work extension.
"""

from repro.core.reference import Reference
from repro.core.solver import (
    project_to_simplex,
    simplex_lstsq,
    simplex_lstsq_from_gram,
    SimplexLstsqResult,
)
from repro.core.geoalign import GeoAlign
from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.shard import ShardedAligner, ShardPlan, ShardSpec, plan_shards
from repro.core.baselines import ArealWeighting, Dasymetric, RegressionCrosswalk
from repro.core.diagnostics import (
    BootstrapResult,
    bootstrap_weights,
    weight_stability_report,
)
from repro.core.pycnophylactic import Pycnophylactic

__all__ = [
    "Reference",
    "project_to_simplex",
    "simplex_lstsq",
    "simplex_lstsq_from_gram",
    "SimplexLstsqResult",
    "GeoAlign",
    "BatchAligner",
    "ReferenceStack",
    "ShardedAligner",
    "ShardPlan",
    "ShardSpec",
    "plan_shards",
    "ArealWeighting",
    "Dasymetric",
    "RegressionCrosswalk",
    "BootstrapResult",
    "bootstrap_weights",
    "weight_stability_report",
    "Pycnophylactic",
]

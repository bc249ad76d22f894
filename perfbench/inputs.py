"""Seeded workload inputs with known truth.

The benchmark owns the seed; the program only ever sees the generated
references and objectives.  Each attribute's true disaggregation matrix
is a random mixture of the (mass-normalised) reference DMs with
per-entry jitter, so its source aggregates (the objective) and target
aggregates (the truth) are both exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reference import Reference
from repro.synth.bigalign import build_big_universe
from repro.synth.universes import united_states_config
from repro.synth.world import SyntheticWorld

#: Attribute vectors one ``table`` op aligns.
TABLE_ATTRIBUTES = 64
#: Distinct ``/align`` payloads the ``serve`` load cycles through.
SERVE_ALIGN_PAYLOADS = 8
#: The Fig. 6 extension's universe and attribute count.
MILLION_SOURCES = 50_000
MILLION_TARGETS = 1_000_000
MILLION_ATTRIBUTES = 4

#: Per-entry multiplicative jitter of the true DMs.
JITTER = (0.8, 1.2)


@dataclass
class Attributes:
    """Objectives (source level) and truth (target level), one row each."""

    objectives: np.ndarray
    truth: np.ndarray


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """An independent stream per purpose, all derived from the run seed."""
    tag = sum(ord(c) << (8 * (i % 4)) for i, c in enumerate(purpose))
    return np.random.default_rng([seed, tag])


def us_references(scale: float = 1.0) -> list[Reference]:
    """The paper-scale US world's 10 datasets, built fresh (no cache)."""
    return SyntheticWorld.build(united_states_config(scale)).references()


def _union_values(references: list[Reference]):
    """``(k, nnz)`` mass-normalised reference values on the union pattern."""
    mats = [ref.dm.matrix.tocsr() for ref in references]
    n_sources, n_targets = mats[0].shape
    keys = []
    for mat in mats:
        rows = np.repeat(np.arange(n_sources, dtype=np.int64), np.diff(mat.indptr))
        keys.append(rows * n_targets + mat.indices.astype(np.int64))
    union = np.unique(np.concatenate(keys))
    values = np.zeros((len(mats), len(union)))
    for i, (mat, key) in enumerate(zip(mats, keys)):
        values[i, np.searchsorted(union, key)] = mat.data / mat.data.sum()
    return values, union // n_targets, union % n_targets, n_sources, n_targets


def mixture_attributes(
    references: list[Reference], n_attrs: int, seed: int, purpose: str
) -> Attributes:
    """``n_attrs`` attributes whose true DMs mix the references' DMs."""
    values, rows, cols, n_sources, n_targets = _union_values(references)
    rng = rng_for(seed, purpose)
    mixtures = rng.dirichlet(np.ones(values.shape[0]), size=n_attrs)
    totals = 10.0 ** rng.uniform(4.0, 7.0, size=n_attrs)
    objectives = np.empty((n_attrs, n_sources))
    truth = np.empty((n_attrs, n_targets))
    for j in range(n_attrs):
        entries = (mixtures[j] @ values) * rng.uniform(*JITTER, size=values.shape[1])
        entries *= totals[j] / entries.sum()
        objectives[j] = np.bincount(rows, weights=entries, minlength=n_sources)
        truth[j] = np.bincount(cols, weights=entries, minlength=n_targets)
    return Attributes(objectives, truth)


def permuted(references: list[Reference], seed: int) -> list[Reference]:
    """The references in a seed-chosen order (crossval's fold order)."""
    order = rng_for(seed, "crossval-order").permutation(len(references))
    return [references[i] for i in order]


def million_inputs(seed: int, scale: float = 1.0):
    """The Fig. 6 extension universe plus attributes with known truth."""
    n_sources = max(int(MILLION_SOURCES * scale), 100)
    n_targets = max(int(MILLION_TARGETS * scale), 1_000)
    # The universe is the library's default one; the seed picks the
    # attributes.  Random universes differ in how well 4 attributes can
    # be recovered, which moved nrmse_mean by 30 % between seeds.
    references, _ = build_big_universe(n_sources, n_targets, n_attributes=1)
    attrs = mixture_attributes(
        references, MILLION_ATTRIBUTES, seed, "million-attributes"
    )
    return references, attrs

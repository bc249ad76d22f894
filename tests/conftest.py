"""Shared fixtures: miniature synthetic worlds and small labelled DMs.

Worlds are session-scoped (building one is the expensive part of the
suite) and deliberately small; set ``REPRO_TEST_SCALE`` to grow them.
"""

import os
import time

import numpy as np
import pytest

from repro import DisaggregationMatrix, Reference
from repro.core import reference as reference_module
from repro.partitions import dm as dm_module
from repro.synth.universes import (
    build_new_york_world,
    build_united_states_world,
)

TEST_SCALE = float(os.environ.get("REPRO_TEST_SCALE", "0.06"))


@pytest.fixture(scope="session")
def ny_world():
    """A miniature New York State world (shared across the session)."""
    return build_new_york_world(scale=TEST_SCALE)


@pytest.fixture(scope="session")
def us_world():
    """A miniature United States world (shared across the session)."""
    return build_united_states_world(scale=TEST_SCALE)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def capture_trace():
    """Context-manager factory recording ``repro.obs`` telemetry.

    Usage::

        def test_something(capture_trace):
            with capture_trace() as session:
                GeoAlign().fit_predict(refs, objective)
            assert session.find_spans("geoalign.fit")

    The yielded object is a :class:`repro.obs.Trace`; assert on its
    ``find_spans`` / ``find_events`` / ``counters`` queries.
    """
    from repro.obs import trace

    def factory(name="test", **attrs):
        return trace(name, **attrs)

    return factory


@pytest.fixture
def count_dm_builds(monkeypatch):
    """Factory recording every build of a DM's Eq. 16/17 arrays.

    ``count_dm_builds(pause=0.0)`` patches the builder behind
    :meth:`DisaggregationMatrix.linear_arrays` and returns the list to
    which each build appends the ``matrix`` it built from, in call
    order.  ``pause`` holds each build (and so the DM's lock) long
    enough for racing threads to reach it.
    """

    def factory(pause=0.0):
        built = []
        build = dm_module._build_linear

        def counted_build(matrix):
            built.append(matrix)
            time.sleep(pause)
            return build(matrix)

        monkeypatch.setattr(dm_module, "_build_linear", counted_build)
        return built

    return factory


@pytest.fixture
def count_reference_memos(monkeypatch):
    """Factory recording every label comparison and normalised row.

    ``count_reference_memos()`` patches the helpers behind
    :meth:`DisaggregationMatrix.same_labels` and
    :meth:`Reference.normalized_source` and returns two lists,
    ``(compared, normalised)``: each full comparison of two DMs' label
    lists appends the pair of DMs, each normalisation the source vector
    it divided, in call order.
    """

    def factory():
        compared, normalised = [], []
        labels_equal = dm_module._labels_equal
        normalize = reference_module._max_normalized

        def counted_labels_equal(left, right):
            compared.append((left, right))
            return labels_equal(left, right)

        def counted_normalize(name, vector):
            normalised.append(vector)
            return normalize(name, vector)

        monkeypatch.setattr(dm_module, "_labels_equal", counted_labels_equal)
        monkeypatch.setattr(
            reference_module, "_max_normalized", counted_normalize
        )
        return compared, normalised

    return factory


@pytest.fixture
def small_dm():
    """3 source x 2 target disaggregation matrix with known sums."""
    return DisaggregationMatrix(
        [[2.0, 0.0], [1.0, 3.0], [0.0, 4.0]],
        ["s0", "s1", "s2"],
        ["t0", "t1"],
    )


@pytest.fixture
def paired_references():
    """Two same-labelled references over 6 source / 3 target units."""
    gen = np.random.default_rng(7)
    src = [f"s{i}" for i in range(6)]
    tgt = [f"t{j}" for j in range(3)]

    def make(seed, name):
        r = np.random.default_rng(seed)
        matrix = r.random((6, 3)) * (r.random((6, 3)) < 0.7)
        matrix[0, 0] += 1.0  # guarantee a non-empty matrix
        return Reference.from_dm(name, DisaggregationMatrix(matrix, src, tgt))

    del gen
    return [make(1, "alpha"), make(2, "beta")]

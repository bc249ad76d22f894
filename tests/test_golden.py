"""Golden regression suite: pinned alignment numerics, both engines.

Replays every JSON world under ``fixtures/golden/`` (written by the
checked-in ``tests/golden_gen.py``) through the scalar GeoAlign path and
the batched engine, holding weights and target predictions to the stored
values at 1e-9.  See the generator's docstring for what the worlds cover
and when regeneration is legitimate.
"""

import glob
import json
import os

import numpy as np
import pytest

from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.geoalign import GeoAlign
from repro.core.reference import Reference
from repro.partitions.dm import DisaggregationMatrix

GOLDEN_DIR = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden"
)
GOLDEN_PATHS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.json")))

RTOL = 1e-9
ATOL = 1e-9

DENOMINATORS = ("row-sums", "source-vectors")


def _load(path):
    with open(path) as handle:
        spec = json.load(handle)
    references = []
    for ref_spec in spec["references"]:
        dm = DisaggregationMatrix.from_pairs(
            np.asarray(ref_spec["dm"]["rows"], dtype=np.int64),
            np.asarray(ref_spec["dm"]["cols"], dtype=np.int64),
            np.asarray(ref_spec["dm"]["values"], dtype=float),
            spec["source_labels"],
            spec["target_labels"],
        )
        references.append(
            Reference(ref_spec["name"], ref_spec["source_vector"], dm)
        )
    objectives = np.asarray(spec["objectives"], dtype=float)
    return spec, references, objectives


def test_fixtures_exist():
    """The generator has been run and its output is checked in."""
    assert len(GOLDEN_PATHS) >= 5


def test_generator_reproduces_fixtures(tmp_path):
    """golden_gen is deterministic and matches the checked-in files."""
    from tests import golden_gen

    regenerated = golden_gen.generate(str(tmp_path))
    assert len(regenerated) == len(GOLDEN_PATHS)
    for fresh_path in regenerated:
        name = os.path.basename(fresh_path)
        with open(fresh_path) as handle:
            fresh = json.load(handle)
        with open(os.path.join(GOLDEN_DIR, name)) as handle:
            committed = json.load(handle)
        assert fresh == committed, (
            f"{name} differs from the checked-in fixture; if the "
            "numerics change was intentional, rerun tests/golden_gen.py "
            "and review the diff"
        )


@pytest.mark.parametrize(
    "path", GOLDEN_PATHS, ids=[os.path.basename(p) for p in GOLDEN_PATHS]
)
@pytest.mark.parametrize("denominator", DENOMINATORS)
def test_scalar_path_matches_golden(path, denominator):
    spec, references, objectives = _load(path)
    expected = spec["expected"][denominator]
    for row_index, objective in enumerate(objectives):
        model = GeoAlign(denominator=denominator).fit(
            references, objective
        )
        np.testing.assert_allclose(
            model.weights_,
            expected["weights"][row_index],
            rtol=RTOL,
            atol=ATOL,
        )
        np.testing.assert_allclose(
            model.predict(),
            expected["predictions"][row_index],
            rtol=RTOL,
            atol=ATOL,
        )


@pytest.mark.parametrize(
    "path", GOLDEN_PATHS, ids=[os.path.basename(p) for p in GOLDEN_PATHS]
)
@pytest.mark.parametrize("denominator", DENOMINATORS)
def test_batch_path_matches_golden(path, denominator):
    spec, references, objectives = _load(path)
    expected = spec["expected"][denominator]
    aligner = BatchAligner(denominator=denominator).fit(
        references, objectives
    )
    predictions = aligner.predict()
    np.testing.assert_allclose(
        aligner.weights_, expected["weights"], rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        predictions, expected["predictions"], rtol=RTOL, atol=ATOL
    )
    # The DM route must agree with the matmul route.
    for row_index, dm in enumerate(aligner.predict_dms()):
        np.testing.assert_allclose(
            dm.col_sums(),
            expected["predictions"][row_index],
            rtol=RTOL,
            atol=ATOL,
        )


@pytest.mark.parametrize(
    "path", GOLDEN_PATHS, ids=[os.path.basename(p) for p in GOLDEN_PATHS]
)
def test_batch_with_prebuilt_stack_matches_golden(path):
    """The ReferenceStack fast path hits the same pinned numbers."""
    spec, references, objectives = _load(path)
    stack = ReferenceStack.build(references)
    predictions = BatchAligner().fit(stack, objectives).predict()
    np.testing.assert_allclose(
        predictions,
        spec["expected"]["row-sums"]["predictions"],
        rtol=RTOL,
        atol=ATOL,
    )


@pytest.mark.parametrize(
    "path", GOLDEN_PATHS, ids=[os.path.basename(p) for p in GOLDEN_PATHS]
)
@pytest.mark.parametrize("denominator", DENOMINATORS)
def test_weighted_reference_builds_match_full_build_bitwise(
    path, denominator, capture_trace
):
    """A predict on a fresh stack builds ``R`` and the operators only for
    the references it weights, and answers what the same fit answers
    after ``stack.operators`` built every reference, bit for bit; so do
    the one-row GeoAlign fits, which zero a reference on the
    collinear-pair, plain-3ref and zero-volume-row worlds."""
    _, references, objectives = _load(path)
    full = ReferenceStack.build(references)
    assert len(full.operators) == len(references)
    aligner = BatchAligner(denominator=denominator)
    expected = aligner.fit(full, objectives).predict()
    fresh = ReferenceStack.build(references)
    got = aligner.fit(fresh, objectives).predict()
    assert got.tobytes() == expected.tobytes()
    for objective in objectives:
        one_row = aligner.fit(full, objective[np.newaxis, :])
        with capture_trace() as session:
            scalar = GeoAlign(denominator=denominator).fit(
                references, objective
            )
            predictions = scalar.predict()
        assert predictions.tobytes() == one_row.predict()[0].tobytes()
        (build,) = session.find_spans("stack.operators")
        assert build.attrs["k"] == np.count_nonzero(scalar.weights_)

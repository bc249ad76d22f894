"""Content fingerprints: the hashing helpers and the domain digests.

A fingerprint hashes the *values* that went into an object, so
perturbing any input must change it while identical inputs must
reproduce it.  These tests pin both directions for the helpers in
:mod:`repro.utils.fingerprint` and for the DM and reference digests
built on them (which key model-store artifacts).
"""

import numpy as np
import pytest

from repro.core.reference import Reference
from repro.errors import ValidationError
from repro.partitions.dm import DisaggregationMatrix
from repro.utils.fingerprint import (
    combine_fingerprints,
    fingerprint_array,
    fingerprint_bytes,
)


class TestFingerprints:
    def test_bytes_length_prefixed_no_collision(self):
        assert fingerprint_bytes(b"ab", b"c") != fingerprint_bytes(
            b"a", b"bc"
        )
        assert fingerprint_bytes(b"x") == fingerprint_bytes(b"x")

    def test_array_content_addressing(self):
        values = np.arange(12.0).reshape(3, 4)
        assert fingerprint_array(values) == fingerprint_array(
            values.copy()
        )
        # dtype, shape and any single value all change the digest
        assert fingerprint_array(values) != fingerprint_array(
            values.astype(np.float32)
        )
        assert fingerprint_array(values) != fingerprint_array(
            values.reshape(4, 3)
        )
        perturbed = values.copy()
        perturbed[1, 2] += 1e-12
        assert fingerprint_array(values) != fingerprint_array(perturbed)
        # non-contiguous views hash by content, not memory layout
        assert fingerprint_array(values.T) == fingerprint_array(
            np.ascontiguousarray(values.T)
        )

    def test_combine_requires_parts_and_is_ordered(self):
        with pytest.raises(ValidationError):
            combine_fingerprints()
        assert combine_fingerprints("a", "b") != combine_fingerprints(
            "b", "a"
        )


class TestDomainFingerprints:
    def test_dm_fingerprint_tracks_content(self, small_dm):
        same = DisaggregationMatrix(
            small_dm.to_dense(), small_dm.source_labels,
            small_dm.target_labels,
        )
        assert small_dm.fingerprint() == same.fingerprint()
        bumped = small_dm.to_dense()
        bumped[1, 1] *= 1.0 + 1e-9
        other = DisaggregationMatrix(
            bumped, small_dm.source_labels, small_dm.target_labels
        )
        assert small_dm.fingerprint() != other.fingerprint()
        relabelled = DisaggregationMatrix(
            small_dm.to_dense(), ["a0", "a1", "a2"],
            small_dm.target_labels,
        )
        assert small_dm.fingerprint() != relabelled.fingerprint()

    def test_reference_fingerprint_tracks_vector_dm_and_name(
        self, paired_references
    ):
        ref = paired_references[0]
        perturbed = ref.with_source_vector(ref.source_vector * 1.0001)
        assert ref.fingerprint() != perturbed.fingerprint()
        renamed = Reference("other-name", ref.source_vector, ref.dm)
        assert ref.fingerprint() != renamed.fingerprint()
        identical = Reference(ref.name, ref.source_vector.copy(), ref.dm)
        assert ref.fingerprint() == identical.fingerprint()

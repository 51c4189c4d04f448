import hashlib
import json
import random

import pytest

from tropmat.sampling import (
    PROFILES,
    sample_convex_set,
    sample_descriptor,
    sample_isometric_pair,
    sample_matrix,
)
from tropmat.geometry import iso_type, isometric
from tropmat.structure import idempotent_form


def test_same_seed_gives_identical_stream():
    for profile in PROFILES:
        a = [sample_matrix(random.Random(99), profile) for _ in range(50)]
        b = [sample_matrix(random.Random(99), profile) for _ in range(50)]
        assert a == b
    assert [sample_descriptor(random.Random(5)) for _ in range(50)] == [
        sample_descriptor(random.Random(5)) for _ in range(50)
    ]


def test_with_neginf_reaches_the_zero_matrix():
    rng = random.Random(1)
    zeros = sum(
        1 for _ in range(10_000) if sample_matrix(rng, "with-neginf").is_zero
    )
    assert zeros > 0


def test_boundary_profile_hits_all_idempotent_families():
    rng = random.Random(2)
    kinds = set()
    for _ in range(10_000):
        a = sample_matrix(rng, "boundary")
        if a @ a == a:
            kinds.add(idempotent_form(a).kind)
    assert kinds == {"zero", "diagonal", "upper", "lower"}


def test_isometric_pairs_are_isometric_and_cover_all_types():
    rng = random.Random(3)
    kinds = set()
    for _ in range(2000):
        m, n = sample_isometric_pair(rng)
        assert isometric(m, n)
        kinds.add(iso_type(m).kind)
    assert kinds == {"empty", "point", "interval", "halfinf", "fullline"}


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        sample_matrix(random.Random(0), "gaussian")
    # an over-long profile name is quoted cut, not echoed whole
    with pytest.raises(ValueError, match="5000 characters") as exc:
        sample_matrix(random.Random(0), "x" * 5000)
    assert len(str(exc.value)) < 400


def test_convex_set_sampler_is_canonical():
    rng = random.Random(4)
    for _ in range(500):
        s = sample_convex_set(rng)
        if not (s.is_empty or s.is_point):
            assert s.lo < s.hi


# SHA-256 of the JSON list of ``to_tokens()`` of the first 300 seed-1 samples
# of each profile, recorded when matrices still stored Fraction entries: the
# samplers must keep the Mersenne Twister stream and the values drawn from it.
SEED_1_DIGESTS = {
    "dense-rational": "04b16c35a3e903846a19f215e0a7c53d0095152ff1ca1e837f9a8d2e8c1d54a9",
    "with-neginf": "f2f1168d3b0ee83f8053498a20b21055b4f5f20c2904871ee3af182002e5fec4",
    "boundary": "fa26a8f9e3fe3d9e54c6568f74c992e159941d0d07ca466c4a055c865ac8a088",
}


def test_seed_1_matrix_stream_is_pinned():
    assert set(SEED_1_DIGESTS) == set(PROFILES)
    for profile, want in SEED_1_DIGESTS.items():
        rng = random.Random(1)
        tokens = [sample_matrix(rng, profile).to_tokens() for _ in range(300)]
        assert hashlib.sha256(json.dumps(tokens).encode()).hexdigest() == want, profile

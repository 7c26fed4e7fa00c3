"""Seed derivation and streams: the hash scheme behind every random stream,
and the agents' `Stream` against numpy's `Generator`."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conscient_sim.seeds import Stream, StoredSeed, derive_seed, make_rng
from conscient_sim.world import WorldConfig, world_layout


def test_derive_seed_matches_hash_oracle():
    # oracle: SHA-256 over "master/label/..." with the first 8 bytes big-endian
    def oracle(master, *labels):
        h = hashlib.sha256()
        h.update(str(master).encode())
        for lab in labels:
            h.update(b"/")
            h.update(str(lab).encode())
        return int.from_bytes(h.digest()[:8], "big")

    assert derive_seed(0) == oracle(0)
    assert derive_seed(7, "field", 3) == oracle(7, "field", 3)
    assert derive_seed(2**63, "agent", 0, "x") == oracle(2**63, "agent", 0, "x")


def test_derive_seed_sensitivity():
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
    # the separator keeps adjacent labels from gluing together
    assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")
    assert derive_seed(1) != derive_seed(1, "")


def test_derive_seed_range_and_determinism():
    for args in ((0,), (123, "x"), (2**64 - 1, "y", 42)):
        s = derive_seed(*args)
        assert 0 <= s < 2**64
        assert derive_seed(*args) == s


def test_make_rng_streams_are_reproducible():
    a = make_rng(99).random(16)
    b = make_rng(99).random(16)
    c = make_rng(100).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# every span class: no draw, 32-bit Lemire (3 * 2**30 rejects a quarter of
# its first draws), 2**32 (a bare half), 64-bit
SPANS = (1, 2, 3, 8, 2**31, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 2**40)


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_stream_draws_equal_numpy_interleaved(seed):
    owned, ref = Stream(seed), make_rng(seed)
    plan = make_rng(seed ^ 1)  # the order of draws, from a stream of its own
    n_draws = 100_000
    ops = plan.integers(0, 100, size=n_draws)
    spans = plan.integers(0, len(SPANS), size=n_draws)
    lows = plan.integers(-(2**40), 2**40, size=n_draws)
    for op, k, low in zip(ops.tolist(), spans.tolist(), lows.tolist()):
        if op < 40:
            assert owned.random() == ref.random()
        elif op < 70:
            assert owned.integers(SPANS[k]) == ref.integers(SPANS[k])
        elif op < 99:
            high = low + SPANS[k]
            assert owned.integers(low, high) == ref.integers(low, high)
        else:
            shape = (1 + k,)
            a, b = owned.normal(0.0, 0.3, size=shape), ref.normal(0.0, 0.3, size=shape)
            assert np.array_equal(a, b)
    # both streams end at the same position
    assert owned.integers(2**32 + 1) == ref.integers(2**32 + 1)


def test_stream_rejects_an_empty_range_as_numpy_does():
    for args in ((0,), (5, 5), (3, 1)):
        with pytest.raises(ValueError):
            make_rng(1).integers(*args)
        with pytest.raises(ValueError):
            Stream(1).integers(*args)


def test_layout_seed_words_give_the_int_seeded_stream():
    config = WorldConfig(n_agents=3, master_seed=11)
    seeds = world_layout(config).agent_seeds
    for aid, stored in enumerate(seeds):
        from_words = Stream(stored)
        from_int = Stream(derive_seed(11, "agent", aid))
        for span in SPANS * 50:
            assert from_words.integers(span) == from_int.integers(span)
            assert from_words.random() == from_int.random()
    # any other request is the plain SeedSequence's
    seq = np.random.SeedSequence(derive_seed(11, "agent", 0))
    assert np.array_equal(seeds[0].generate_state(8), seq.generate_state(8))
    assert np.array_equal(seeds[0].generate_state(4, np.uint64), seq.generate_state(4, np.uint64))
    assert isinstance(StoredSeed(5), np.random.bit_generator.ISeedSequence)

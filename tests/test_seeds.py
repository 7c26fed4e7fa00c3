"""Seed derivation and streams: the hash scheme behind every random stream,
and the agents' `Stream` against numpy's `Generator`."""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from conscient_sim import seeds
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
# its first draws), 2**32 (a bare half)
SPANS = (1, 2, 3, 8, 2**31, 3 * 2**30, 2**32 - 1, 2**32)


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
            # numpy's two-argument draw is `low +` its one-argument draw
            assert low + owned.integers(SPANS[k]) == ref.integers(low, low + SPANS[k])
        else:
            shape = (1 + k,)
            a, b = owned.normal(0.0, 0.3, size=shape), ref.normal(0.0, 0.3, size=shape)
            assert np.array_equal(a, b)
    # both streams end at the same position
    assert owned.random() == ref.random()


def test_stream_rejects_an_empty_range_as_numpy_does():
    owned, ref = Stream(1), make_rng(1)
    assert owned.integers(8) == ref.integers(8)
    for span in (0, -3):
        with pytest.raises(ValueError):
            make_rng(1).integers(span)
    # and a span past one 32-bit draw, which numpy draws with 64 bits
    for span in (0, -3, 2**32 + 1):
        with pytest.raises(ValueError, match=str(span)):
            owned.integers(span)
    # a rejected span draws nothing
    assert owned.integers(8) == ref.integers(8)
    assert owned.random() == ref.random()


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


def _unread(stream):
    """Raw outputs the stream's buffer holds and has not handed out."""
    return len(stream._buf) - stream._pos


# The buffer is filled when a draw finds it empty, and that draw reads it, so
# at most 255 outputs are ever unread; 0 is both a fresh stream and one that
# has read a whole buffer.
@pytest.mark.parametrize("n_read, left", [(0, 0), (255, 1), (256, 0), (257, 255), (511, 1)])
def test_normal_after_the_buffer_edges_equals_numpy(n_read, left):
    owned, ref = Stream(21), make_rng(21)
    for _ in range(n_read):
        assert owned.random() == ref.random()
    assert _unread(owned) == left
    assert np.array_equal(owned.normal(0.0, 0.3, size=5), ref.normal(0.0, 0.3, size=5))
    for span in SPANS * 60:
        assert owned.integers(span) == ref.integers(span)
        assert owned.random() == ref.random()


def test_wide_integers_in_mid_buffer_equal_numpy():
    owned, ref = Stream(22), make_rng(22)
    for _ in range(100):
        assert owned.random() == ref.random()
    assert _unread(owned) == 156
    for span in (2**40, 2**41):
        with pytest.raises(ValueError):
            owned.integers(span)
    assert _unread(owned) == 156
    for _ in range(600):
        assert owned.integers(8) == ref.integers(8)
        assert owned.random() == ref.random()


def test_kept_half_survives_a_refill_and_a_normal():
    owned, ref = Stream(23), make_rng(23)
    for _ in range(255):
        assert owned.random() == ref.random()
    # the buffer's last output: its high half is kept ...
    assert owned.integers(8) == ref.integers(8)
    assert _unread(owned) == 0 and owned._half is not None
    # ... past the refill the next random() makes
    assert owned.random() == ref.random()
    assert _unread(owned) == 255
    assert owned.integers(8) == ref.integers(8)
    assert owned._half is None
    # and past the rewind before a delegated normal
    assert owned.integers(3) == ref.integers(3)
    assert owned._half is not None
    assert np.array_equal(owned.normal(0.0, 1.0, size=3), ref.normal(0.0, 1.0, size=3))
    assert owned._half is not None
    assert owned.integers(3) == ref.integers(3)
    for _ in range(600):
        assert 1 + owned.integers(3) == ref.integers(1, 4)
        assert owned.random() == ref.random()


def _reads_gen_before_rewind(stmts: list[ast.stmt]) -> bool:
    """Whether some path through `stmts` reads `self._gen` before it calls
    `self._rewind()`; a rewind inside a nested block covers that block only."""
    for stmt in stmts:
        if ast.unparse(stmt) == "self._rewind()":
            return False
        for _, value in ast.iter_fields(stmt):
            nodes = value if isinstance(value, list) else [value]
            if nodes and all(isinstance(n, ast.stmt) for n in nodes):
                if _reads_gen_before_rewind(nodes):  # a nested block
                    return True
            elif any(
                isinstance(x, ast.Attribute) and ast.unparse(x) == "self._gen"
                for n in nodes
                if isinstance(n, ast.AST)
                for x in ast.walk(n)
            ):
                return True
    return False


def _unrewound_methods(cls: ast.ClassDef) -> list[str]:
    """Methods of the class, but `__init__`, that reach `self._gen` unrewound."""
    return [
        m.name
        for m in cls.body
        if isinstance(m, ast.FunctionDef)
        and m.name != "__init__"
        and _reads_gen_before_rewind(m.body)
    ]


def _stream_class() -> ast.ClassDef:
    tree = ast.parse(Path(seeds.__file__).read_text(encoding="utf-8"))
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Stream")


def test_every_stream_method_that_delegates_rewinds_first():
    # numpy must read the bit generator where the stream stands, not where
    # the buffer's last refill left it
    cls = _stream_class()
    assert _unrewound_methods(cls) == []
    delegating = {
        m.name
        for m in cls.body
        if isinstance(m, ast.FunctionDef)
        and m.name != "__init__"
        and "self._gen" in ast.unparse(m)
    }
    assert delegating == {"normal"}


def test_rewind_guard_flags_a_method_that_skips_the_rewind():
    cls = _stream_class()
    planted = ast.parse(
        "def standard_normal(self, size):\n"
        "    return self._gen.standard_normal(size)\n\n"
        "def choice(self, a):\n"
        "    if len(a) > 1:\n"
        "        self._rewind()\n"
        "    return self._gen.choice(a)\n\n"
        "def exponential(self):\n"
        "    x = self._gen.exponential()\n"
        "    self._rewind()\n"
        "    return x\n\n"
        "def gamma(self, k):\n"
        "    for _ in range(k):\n"
        "        self._gen.gamma(k)\n\n"
        "def uniform(self):\n"
        "    if self._gen is None:\n"
        "        pass\n\n"
        "def poisson(self, lam):\n"
        "    self._rewind()\n"
        "    return self._gen.poisson(lam)\n"
    ).body
    cls.body.extend(planted)
    assert _unrewound_methods(cls) == ["standard_normal", "choice", "exponential", "gamma", "uniform"]

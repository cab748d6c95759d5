import numpy as np
import pytest

from cascade_logic import _seeds, make_rng
from cascade_logic._seeds import make_rngs

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + make_rng(20261020).integers(
    0, 2**64, 2000, dtype=np.uint64).tolist()


def assert_same_streams(seeds, generators):
    generators = list(generators)
    assert len(generators) == len(seeds)
    for seed, got in zip(seeds, generators):
        want = make_rng(seed)
        assert got.bit_generator.state == want.bit_generator.state, seed
        assert got.random() == want.random(), seed
        assert got.integers(1 << 40) == want.integers(1 << 40), seed
        assert got.permutation(9).tolist() == want.permutation(9).tolist(), seed


class TestMakeRngs:
    def test_streams_equal_make_rng(self):
        assert_same_streams(SEEDS, make_rngs(np.array(SEEDS, dtype=np.uint64)))

    def test_chunk_boundaries(self, monkeypatch):
        # seeds are hashed a chunk at a time; a short last chunk and a
        # one-seed chunk give the same streams
        for chunk in (1, 7):
            monkeypatch.setattr(_seeds, "SEED_CHUNK", chunk)
            assert_same_streams(SEEDS[:30], make_rngs(np.array(SEEDS[:30], dtype=np.uint64)))

    def test_lazy(self, monkeypatch):
        # generators are built as they are reached, and hashing waits for
        # the chunk it serves
        hashed = []
        words = _seeds._pcg64_words

        def counted(seeds):
            hashed.append(len(seeds))
            return words(seeds)
        monkeypatch.setattr(_seeds, "_pcg64_words", counted)
        monkeypatch.setattr(_seeds, "SEED_CHUNK", 4)
        rngs = make_rngs(np.arange(10, dtype=np.uint64))
        assert hashed == []
        next(rngs)
        assert hashed == [4]
        assert len(list(rngs)) == 9
        assert hashed == [4, 4, 2]

    def test_no_seeds(self):
        assert list(make_rngs(np.array([], dtype=np.uint64))) == []

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    def test_words_are_numpys_seed_sequence_state(self, seed):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        got = _seeds._pcg64_words(np.array([seed], dtype=np.uint64))
        assert got.tolist() == [want.tolist()]

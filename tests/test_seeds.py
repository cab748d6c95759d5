import pickle

import numpy as np
import pytest

from cascade_logic import _seeds, make_rng, mix_seed
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

    def test_generators_pickle(self):
        seeds = np.array(SEEDS[:3], dtype=np.uint64)
        assert_same_streams(SEEDS[:3], (pickle.loads(pickle.dumps(g)) for g in make_rngs(seeds)))

    def test_no_seeds(self):
        assert list(make_rngs(np.array([], dtype=np.uint64))) == []

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    def test_words_are_numpys_seed_sequence_state(self, seed):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        got = _seeds._pcg64_words(np.array([seed], dtype=np.uint64))
        assert got.tolist() == [want.tolist()]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 64, 999])
def test_shuffling_a_list_draws_what_permutation_draws(size):
    # a random-sweep pass shuffles a list of increasing ids in place; the
    # order and the generator's next draws equal those of permutation
    seeds = mix_seed(size, np.arange(200, dtype=np.uint64))
    for k, (rng_a, rng_b) in enumerate(zip(make_rngs(seeds), make_rngs(seeds))):
        ids = np.sort(make_rng(k).choice(2 * size + 1, size, replace=False)).tolist()
        want = rng_b.permutation(np.array(ids, dtype=np.intp)).tolist()
        rng_a.shuffle(ids)
        assert len(ids) == size and ids == want, k
        assert rng_a.random() == rng_b.random(), k

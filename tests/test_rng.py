import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widesense import rng as rng_module
from widesense.rng import stream_seed, substreams


def _stream(master_seed, *path):
    return np.random.default_rng(stream_seed(master_seed, *path))


def test_substream_reproducible():
    a = _stream(7, "phi", 3).standard_normal(16)
    b = _stream(7, "phi", 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_paths_distinct_streams():
    draws = {
        tuple(_stream(7, *path).standard_normal(4))
        for path in (("phi", 1), ("phi", 2), ("psi", 1), ("noise", 1), ())
    }
    assert len(draws) == 5


def test_stream_seed_is_stable_and_named():
    assert stream_seed(7, "phi", 3) == stream_seed(7, "phi", 3)
    seeds = {stream_seed(7, part, i) for part in ("phi", "psi") for i in range(50)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)


def test_master_seed_separates_everything():
    assert stream_seed(1, "x") != stream_seed(2, "x")
    a = _stream(1).standard_normal(8)
    b = _stream(2).standard_normal(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# substreams: the vectorized port of SeedSequence's pool hash

SOME = settings(max_examples=40, deadline=None, database=None)

# Masters at the edges of one and two 32-bit words, and above 64 bits,
# where stream_seed keeps the low 64 bits.
MASTERS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 12345, 2**80 + 7]),
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**96),
)
# Path parts: names, small ints, and ints of 32 bits or more, which
# stream_seed cuts to their low 32 bits.
PARTS = st.one_of(
    st.text(max_size=8),
    st.integers(0, 2**16),
    st.integers(2**32, 2**64 - 1),
)
WORD64 = st.integers(0, 2**64 - 1)


@SOME
@given(MASTERS, st.lists(PARTS, max_size=3), st.lists(WORD64, min_size=1, max_size=6),
       st.data())
def test_array_path_part_matches_stream_seed(master, path, values, data):
    where = data.draw(st.integers(0, len(path)))
    array = np.array(values, dtype=np.uint64)
    seeds = substreams(master, *path[:where], array, *path[where:]).seeds
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [stream_seed(master, *path[:where], v, *path[where:])
                              for v in values]


@SOME
@given(st.lists(WORD64, min_size=1, max_size=6), st.lists(PARTS, max_size=3))
def test_array_master_matches_stream_seed(masters, path):
    seeds = substreams(np.array(masters, dtype=np.uint64), *path).seeds
    assert seeds.tolist() == [stream_seed(m, *path) for m in masters]


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3])
def test_edge_masters_match_stream_seed(master):
    trials = np.arange(5)
    assert substreams(master, "trial", trials).seeds.tolist() == [
        stream_seed(master, "trial", t) for t in range(5)]
    assert substreams(master).seeds.tolist() == [stream_seed(master)]


def _states(streams):
    return [(seed, rng.bit_generator.state) for seed, rng in streams]


def _default_states(seeds):
    return [(seed, np.random.default_rng(seed).bit_generator.state) for seed in seeds]


@SOME
@given(MASTERS, st.integers(1, 12))
def test_generators_match_default_rng(master, count):
    streams = substreams(master, "trial", np.arange(count))
    seeds = [stream_seed(master, "trial", t) for t in range(count)]
    assert _states(streams) == _default_states(seeds)
    # The generator draws as default_rng(seed) does, not only starts there.
    (seed, rng), = streams[:1]
    assert np.array_equal(rng.standard_normal(8),
                          np.random.default_rng(seed).standard_normal(8))


@SOME
@given(MASTERS, st.integers(1, 12), st.data())
def test_slices_and_pickles_keep_seeds_and_states(master, count, data):
    streams = substreams(master, "trial", np.arange(count))
    start = data.draw(st.integers(0, count))
    stop = data.draw(st.integers(start, count))
    part = streams[start:stop]
    assert len(part) == stop - start
    assert part.seeds.tolist() == streams.seeds.tolist()[start:stop]
    for copy in (part, pickle.loads(pickle.dumps(part))):
        assert _states(copy) == _default_states(part.seeds.tolist())


def test_generators_are_built_lazily(monkeypatch):
    built = []

    class Counting(rng_module._SeedingWords):
        __slots__ = ()

        def __init__(self, words):
            built.append(words)
            super().__init__(words)

    # Register the real class as NumPy's seed sequence before patching it,
    # so that the one registration does not go to the counting subclass.
    rng_module._pcg64()
    monkeypatch.setattr(rng_module, "_SeedingWords", Counting)
    streams = iter(substreams(3, "trial", np.arange(3)))
    assert not built
    seed, rng = next(streams)
    # Taking the first pair builds its generator and no other.
    assert len(built) == 1
    assert isinstance(seed, int) and isinstance(rng, np.random.Generator)
    first = rng.bit_generator.state
    rng.standard_normal(4)
    # Drawing from one generator leaves the next one's start untouched.
    _seed, second = next(streams)
    assert len(built) == 2
    assert second.bit_generator.state == np.random.default_rng(
        stream_seed(3, "trial", 1)).bit_generator.state
    assert first == np.random.default_rng(seed).bit_generator.state


def test_seed_sequence_hands_out_the_seeding_words():
    (seed, rng), = substreams(11, "x", np.arange(1))
    reference = np.random.SeedSequence(seed)
    held = rng.bit_generator.seed_seq
    for n_words in (4, 1):
        assert np.array_equal(held.generate_state(n_words, np.uint64),
                              reference.generate_state(n_words, np.uint64))
    for n_words, dtype in ((5, np.uint64), (2, np.uint32), (2, np.float64)):
        with pytest.raises(ValueError):
            held.generate_state(n_words, dtype)

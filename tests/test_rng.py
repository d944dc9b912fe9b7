import numpy as np

from widesense.rng import stream_seed


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

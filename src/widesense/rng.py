"""Deterministic random-stream derivation.

Every stochastic quantity in a trial (signal, measurement matrices, noise)
draws from ``np.random.default_rng(stream_seed(master_seed, *path))``, its own
named substream of one master seed, so results are reproducible bit-for-bit
and independent of evaluation order.

:func:`stream_seed` derives one seed through NumPy's ``SeedSequence``.
:func:`substreams` derives many at once, with the master or a path part an
integer array: it runs ``SeedSequence``'s pool hash (``mix_entropy`` and
``generate_state`` at pool size 4) on arrays of 32-bit words, once for the
seeds and once for the PCG64 seeding words of their generators.  The
:class:`Streams` it returns builds each ``Generator`` only when reached, in
the state ``np.random.default_rng(seed)`` would have.  ``numpy.random``
itself is imported at the first such build, since it loads hashlib's OpenSSL
backend, which a process that draws nothing need not pay for.

Seeds fix the draws, and :func:`pin_blas_threads` the arithmetic on them:
each frame step, each sweep and each sweep pool worker runs BLAS on one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import warnings
import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

# The hash constants of NumPy's SeedSequence.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Each pool word in turn, hashed into every other pool word.
_CROSS = tuple((src, [dst for dst in range(_POOL_SIZE) if dst != src])
               for src in range(_POOL_SIZE))
# The port holds 32-bit words in uint64 arrays and masks after each product
# and sum, so that it runs on the few uint64 loops: first use of each new
# NumPy loop maps more of NumPy's code into the resident set.
_LOW32, _SHIFT16, _WORD = np.uint64(_MASK32), np.uint64(16), np.uint64(1 << 32)
# mix() subtracts MIX_MULT_R times a word; modulo 2**32 that adds this.
_MIX_L, _MIX_R = np.uint64(_MIX_MULT_L), np.uint64((1 << 32) - _MIX_MULT_R)


def _key_part(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def stream_seed(master_seed: int, *path: int | str) -> int:
    """64-bit seed derived from a named substream, for APIs that take ints."""
    ss = np.random.SeedSequence(
        entropy=int(master_seed) & _MASK64,
        spawn_key=tuple(_key_part(p) for p in path),
    )
    a, b = ss.generate_state(2, dtype=np.uint64)[:2]
    return int(a ^ (b << 1)) & _MASK64


def _constants(init: int, mult: int, steps: int) -> np.ndarray:
    """A hash constant's value before each of ``steps`` steps and after the
    last, as a column that broadcasts over trials."""
    values = [init]
    for _ in range(steps):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint64)[:, None]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value &= _LOW32
    value ^= value >> _SHIFT16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x
    result += _MIX_R * y
    result &= _LOW32
    result ^= result >> _SHIFT16
    return result


def _pool(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` of each column of ``entropy`` (words x
    trials, at least 4 words): the (4, trials) entropy pools."""
    c = _constants(_INIT_A, _MULT_A, 4 + 12 + 4 * (len(entropy) - _POOL_SIZE))
    pool = _hashmix(entropy[:_POOL_SIZE], c[0:4], c[1:5])
    k = 4
    for src, dsts in _CROSS:
        pool[dsts] = _mix(pool[dsts], _hashmix(pool[src], c[k:k + 3], c[k + 1:k + 4]))
        k += 3
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, c[k:k + 4], c[k + 1:k + 5]))
        k += 4
    return pool


def _state64(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, np.uint64)`` of each pool
    column, as (n_words, trials), for an even ``n_words``."""
    c = _constants(_INIT_B, _MULT_B, 2 * n_words)
    state = _hashmix(np.concatenate([pool] * (n_words // 2)), c[:-1], c[1:])
    return state[1::2] * _WORD + state[0::2]


def _pools(master, path: tuple, size: int) -> np.ndarray:
    """The entropy pools of ``SeedSequence(master, spawn_key=path)``, as
    (4, size), with ``master`` or parts of ``path`` arrays of ``size``."""
    # SeedSequence pads the master's words to the pool size before the
    # spawn key, one word per path part; without a spawn key it pads
    # nothing, but a zero word then mixes in as no word does.
    entropy = np.zeros((_POOL_SIZE + len(path), size), dtype=np.uint64)
    entropy[0], entropy[1] = master & _LOW32, master >> np.uint64(32)
    for row, part in enumerate(path, _POOL_SIZE):
        entropy[row] = (part.astype(np.uint64) & _LOW32 if isinstance(part, np.ndarray)
                        else _key_part(part))
    return _pool(entropy)


def substreams(master_seed, *path) -> "Streams":
    """The seeds ``stream_seed(master_seed, *path)`` and their generators,
    with the master or parts of the path, one or more, 1-D integer arrays
    of one length: element ``i`` takes element ``i`` of each array."""
    if isinstance(master_seed, np.ndarray):
        master = master_seed.astype(np.uint64)
    else:
        master = np.uint64(int(master_seed) & _MASK64)
    size = max(len(p) if isinstance(p, np.ndarray) else 1 for p in (master_seed, *path))
    a, b = _state64(_pools(master, path, size), 2)
    seeds = a ^ (b + b)  # stream_seed's a ^ (b << 1)
    # default_rng(seed) seeds PCG64 with generate_state(4, np.uint64) of
    # SeedSequence(seed).
    words = _state64(_pools(seeds, (), size), 4)
    return Streams(seeds, np.ascontiguousarray(words.T))


class Streams:
    """Seeds of named substreams and the PCG64 seeding words of their
    generators.

    ``seeds`` is a uint64 array and row ``i`` of ``words`` holds seed
    ``i``'s four 64-bit seeding words.  Slicing gives the Streams of the
    slice; iterating gives ``(seed, rng)`` pairs, where ``seed`` is an int
    and ``rng`` equals ``np.random.default_rng(seed)``, built only when its
    pair is reached.
    """

    __slots__ = ("seeds", "words")

    def __init__(self, seeds: np.ndarray, words: np.ndarray):
        self.seeds, self.words = seeds, words

    def __len__(self) -> int:
        return len(self.seeds)

    def __getitem__(self, index: slice) -> "Streams":
        return Streams(self.seeds[index], self.words[index])

    def __iter__(self):
        generator, pcg64 = _pcg64()
        for seed, words in zip(self.seeds.tolist(), self.words):
            yield seed, generator(pcg64(_SeedingWords(words)))


class _SeedingWords:
    """The seed sequence of a generator whose PCG64 seeding words are known:
    it hands them out as ``SeedSequence(seed).generate_state`` would.  It is
    registered as NumPy's ``ISeedSequence`` when ``numpy.random`` is first
    imported here."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if np.dtype(dtype) != np.uint64 or n_words > len(self.words):
            raise ValueError("only the four uint64 seeding words of PCG64 are held")
        return self.words[:n_words]


@functools.cache
def _pcg64():
    """``Generator`` and ``PCG64``, imported when first needed."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedingWords)
    return Generator, PCG64


# (getter, setter) name pairs of the thread count of an OpenBLAS build.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_threads():
    """The (getter, setter) of the thread count of the OpenBLAS bundled with
    NumPy, or None when no known pair is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _BLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextlib.contextmanager
def pin_blas_threads():
    """Run the block with the OpenBLAS bundled with NumPy on one thread, so
    that products, and hence table bytes, do not depend on the BLAS thread
    count; use more workers, not more BLAS threads, for speed.  The caller's
    thread count is restored afterwards.  Warns when no known thread setter
    is found."""
    found = _blas_threads()
    if found is None:
        warnings.warn("no OpenBLAS thread setter found; tables may differ in the last "
                      "bits from one BLAS thread count to another", RuntimeWarning,
                      stacklevel=3)
        yield
        return
    getter, setter = found
    saved = getter()
    setter(1)
    try:
        yield
    finally:
        setter(saved)


def _pin_worker() -> None:
    """Pool initializer: a worker keeps OpenBLAS on one thread for its life."""
    found = _blas_threads()
    if found is not None:
        found[1](1)

"""Portable counter-based random streams.

Devices and the coordinator must regenerate identical codebooks and
quantization draws from a seed alone, across processes and platforms.
Library generators do not promise bit-stable streams across versions, so
the generator here is pinned down exactly:

    word(i) = mix64((seed + i * 0x9E3779B97F4A7C15) mod 2^64),  i = 1, 2, ...

where ``mix64`` is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31          (all on 64-bit words)

* uniform doubles: ``(word >> 11) * 2^-53``, in [0, 1)
* normal doubles: Box-Muller on consecutive word pairs, with
  ``u1 = ((word >> 11) + 1) * 2^-53`` in (0, 1] so log(u1) is finite
* child streams: fold the parent seed with the tag words via
  ``h = mix64(((h + 0x9E3779B97F4A7C15) mod 2^64) xor mix64(word))``

Outputs are a pure function of (seed, counter), so a stream can be
re-created at any point and segments/clients can draw from independently
derived substreams in any schedule order.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_TWO_M53 = 2.0 ** -53

_GOLDEN_U64, _MIX_A_U64, _MIX_B_U64 = np.uint64(_GOLDEN), np.uint64(_MIX_A), np.uint64(_MIX_B)
_R11, _R27, _R30, _R31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)  # made once


def mix64(z):
    """SplitMix64 finalizer on a Python int, reduced mod 2^64, or in place on a uint64 array."""
    if type(z) is not int:
        z ^= z >> _R30
        z *= _MIX_A_U64
        z ^= z >> _R27
        z *= _MIX_B_U64
        z ^= z >> _R31
        return z
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


# mix64(j) for j < len: the word child tag j folds in, grown on demand to the largest n asked for
_CHILD_WORDS = np.empty(0, dtype=np.uint64)


def _child_words(n: int) -> np.ndarray:
    """mix64 of the tags 0 .. n-1, read-only."""
    global _CHILD_WORDS
    if n > len(_CHILD_WORDS):
        table = mix64(np.arange(n, dtype=np.uint64))
        table.flags.writeable = False
        _CHILD_WORDS = table
    return _CHILD_WORDS[:n]


def _words_of(seed: int | np.ndarray, counter: int, n: int) -> np.ndarray:
    """word(counter + 1) .. word(counter + n) of a seed, or of each seed of an array, along
    a last axis."""
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    return mix64((seed if isinstance(seed, int) else seed[..., None]) + idx * _GOLDEN_U64)


def _unit(words: np.ndarray) -> np.ndarray:
    return (words >> _R11) * _TWO_M53  # the product casts the 53-bit integers to f64 exactly


def _tag_words(tag) -> list:
    """Reduce a derivation tag to 64-bit words.

    Ints contribute themselves (mod 2^64); str/bytes contribute their
    length followed by each byte, so distinct labels never collide by
    prefix. An int array contributes one uint64 word per element.
    """
    if isinstance(tag, (int, np.integer)):
        return [int(tag) & _MASK64]
    if isinstance(tag, np.ndarray) and tag.dtype.kind in "iu":
        return [tag.astype(np.uint64)]
    if isinstance(tag, str):
        tag = tag.encode("utf-8")
    if isinstance(tag, (bytes, bytearray)):
        return [len(tag)] + list(tag)
    raise TypeError(f"unsupported stream tag type: {type(tag).__name__}")


class Stream:
    """Deterministic random stream with hierarchical derivation.

    Two streams built from the same seed produce identical output
    regardless of platform, process, or how output is chunked into calls.
    """

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int | np.ndarray):
        # operator.index refuses a float seed, which int() would truncate; an int
        # array holds one seed per child stream, as derive builds for an array tag
        many = isinstance(seed, np.ndarray) and seed.dtype.kind in "iu"
        self._seed = seed.astype(np.uint64) if many else operator.index(seed) & _MASK64
        self._counter = 0

    @property
    def seed(self) -> int | np.ndarray:
        return self._seed

    def derive(self, *tags) -> "Stream":
        """Create an independent child stream keyed by ``tags``.

        The child depends only on (parent seed, tags), never on how much
        output the parent has produced. An int-array tag ids gives one stream
        whose draws have one row per element, row i those of ``derive(..., ids[i], ...)``.
        Each array tag adds a trailing axis: on a stream of many children S_i,
        child (i, j) of ``derive(ids)`` is ``S_i.derive(ids[j])``.
        """
        h = self._seed
        for tag in tags:
            if isinstance(tag, np.ndarray) and isinstance(h, np.ndarray):
                h = h[..., None]
            for word in _tag_words(tag):
                h = mix64(((h + _GOLDEN) & _MASK64) ^ mix64(word))
        return Stream(h)

    def child_uniforms(self, n: int, k: int) -> np.ndarray:
        """k uniforms of each of the children 0 .. n-1, ``derive(np.arange(n)).uniforms(k)``.

        In closed form: child j's seed is derive's fold of the tag word mix64(j),
        which comes from a table, so no tag is mixed per call.
        """
        h = self._seed if isinstance(self._seed, int) else self._seed[..., None]
        return _unit(_words_of(mix64(((h + _GOLDEN) & _MASK64) ^ _child_words(n)), 0, k))

    def _words(self, n: int) -> np.ndarray:
        words = _words_of(self._seed, self._counter, n)
        self._counter += n
        return words

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), along a last axis."""
        return _unit(self._words(n))

    def uniform(self) -> float:
        return self.uniforms(1).item()  # raises for a stream of many children

    def normals(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller, along a last axis."""
        w = self._words(2 * ((n + 1) // 2))
        u1 = ((w[..., 0::2] >> _R11).astype(np.float64) + 1.0) * _TWO_M53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * _unit(w[..., 1::2])
        out = np.empty(w.shape)
        out[..., 0::2] = r * np.cos(theta)
        out[..., 1::2] = r * np.sin(theta)
        return out[..., :n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n)."""
        return np.argsort(self.uniforms(n), kind="stable")

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), returned in ascending order, along a last axis."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        return np.sort(self.permutation(n)[..., :k], axis=-1)

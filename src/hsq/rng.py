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

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_TWO_M53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, reduced mod 2^64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def _unit(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * _TWO_M53


def _tag_words(tag) -> list[int]:
    """Reduce a derivation tag to 64-bit words.

    Ints contribute themselves (mod 2^64); str/bytes contribute their
    length followed by each byte, so distinct labels never collide by
    prefix.
    """
    if isinstance(tag, (int, np.integer)):
        return [int(tag) & _MASK64]
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

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._counter = 0

    @property
    def seed(self) -> int:
        return self._seed

    def derive(self, *tags) -> "Stream":
        """Create an independent child stream keyed by ``tags``.

        The child depends only on (parent seed, tags), never on how much
        output the parent has produced.
        """
        h = self._seed
        for tag in tags:
            for word in _tag_words(tag):
                h = mix64(((h + _GOLDEN) & _MASK64) ^ mix64(word))
        return Stream(h)

    def substream_uniforms(self, n: int, k: int) -> np.ndarray:
        """n x k uniforms, row j equal to ``self.derive(j).uniforms(k)``, in closed form."""
        seeds = _mix64_array(np.uint64((self._seed + _GOLDEN) & _MASK64)
                             ^ _mix64_array(np.arange(n, dtype=np.uint64)))
        idx = np.arange(1, k + 1, dtype=np.uint64)
        return _unit(_mix64_array(seeds[:, None] + idx * np.uint64(_GOLDEN)))

    def _words(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)
        return _mix64_array(z)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return _unit(self._words(n))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller."""
        pairs = (n + 1) // 2
        w = self._words(2 * pairs)
        u1 = ((w[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_M53
        u2 = (w[1::2] >> np.uint64(11)).astype(np.float64) * _TWO_M53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n)."""
        return np.argsort(self.uniforms(n), kind="stable")

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), returned in ascending order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        return np.sort(self.permutation(n)[:k])

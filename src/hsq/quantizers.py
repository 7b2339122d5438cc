"""Hyper-sphere gradient quantization.

A d-dimensional gradient is split into segments of length d' (the last
one zero-padded) and each segment is reduced to a tuple: the index of a
codeword that stands in for the segment's direction, plus a signed
scalar pseudo-norm that carries its magnitude. Two selection rules are
provided:

* unbiased: the codeword is drawn with probability proportional to
  |p_i| where p = pinv @ g, and u = sign(p_i) * ||p||_1. Averaged over
  the draw, u * c equals g exactly.
* greedy: the codeword maximizing |g . c| is chosen deterministically
  and u = g . c, which minimizes the residual ||g - u c|| over the
  codebook but is biased.

Pseudo-norms are further rounded stochastically onto an (s+1)-level grid
spanning [u_min, u_max] of the current gradient, so a segment costs
ceil(log2 m) + ceil(log2 (s+1)) bits on the wire. With s = 0 the exact
pseudo-norm travels as a 32-bit float instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .codebook import Codebook
from .errors import DimensionMismatch, EmptyInput, InvalidGradient, Overflow, OutOfRange
from .rng import Stream

# Absolute slack when checking u against [u_min, u_max]; values inside it
# are clamped, values beyond it are errors.
RANGE_SLACK = 1e-12


class Variant(enum.Enum):
    UNBIASED = "unbiased"
    GREEDY = "greedy"


@dataclass(eq=False)
class CompressedGradient:
    """A whole gradient as per-segment arrays, one entry per segment.

    ``indices`` (int64) are the codeword indices. ``norms`` (float64)
    are the exact signed pseudo-norms u from codeword selection, or in
    exact-norm mode (s = 0) the f32-rounded u the wire carries. ``grid``
    (int64) holds each u's level after stochastic rounding, and is None
    when s = 0. u_min/u_max are the extreme pseudo-norms of this
    gradient, rounded outward to f32 (they travel as 32-bit floats), so
    every segment's u stays inside the transmitted interval.
    """

    total_dim: int
    segment_dim: int
    codeword_count: int
    levels: int
    u_min: float
    u_max: float
    indices: np.ndarray
    norms: np.ndarray
    grid: np.ndarray | None

    def num_segments(self) -> int:
        return len(self.indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedGradient):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def _check_gradient(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1:
        raise InvalidGradient(f"gradient must be 1-D, got ndim={g.ndim}")
    if not np.all(np.isfinite(g)):
        raise InvalidGradient("gradient contains NaN or Inf")
    return g


def _check_segment(g_segment: np.ndarray, cb: Codebook) -> np.ndarray:
    g = _check_gradient(g_segment)
    if g.shape[0] != cb.dim:
        raise DimensionMismatch(f"segment length {g.shape[0]} != codebook dim {cb.dim}")
    return g


def _select_unbiased(g: np.ndarray, cb: Codebook, rng: Stream, n: int | None):
    """The unbiased selection rule for one finite segment g.

    Picks codeword i with probability |p_i| / ||p||_1, p = pinv @ g, by
    inverse CDF on one uniform (n None) or on n uniforms, and sets
    u_i = sign(p_i) * ||p||_1. The all-zero segment picks index 0 with
    u = 0 and draws nothing. Returns (indices, u values), scalar-shaped
    when n is None.
    """
    if not np.any(g):
        shape = () if n is None else n
        return np.zeros(shape, dtype=np.int64), np.zeros(shape)
    p = cb.pinv @ g
    abs_p = np.abs(p)
    l1 = float(abs_p.sum())
    cdf = np.cumsum(abs_p / l1)
    draws = rng.uniform() if n is None else rng.uniforms(n)
    # Searching the first m-1 boundaries clamps the index to m-1, which
    # guards against the cumsum's last entry rounding below a draw.
    idx = np.searchsorted(cdf[:-1], draws, side="right")
    return idx, np.copysign(l1, p[idx])


def quantize_unbiased(g_segment: np.ndarray, cb: Codebook, rng: Stream) -> tuple[float, int]:
    """Probabilistic codeword selection; unbiased in expectation.

    Consumes exactly one uniform draw from ``rng`` (inverse CDF over the
    selection probabilities), so results are reproducible from the
    stream seed alone.

    Returns:
        (u, codeword_index) with u = sign(p_i) * ||p||_1, or (0.0, 0)
        for the all-zero segment.
    """
    g = _check_segment(g_segment, cb)
    i, u = _select_unbiased(g, cb, rng, None)
    return float(u), int(i)


def quantize_greedy(g_segment: np.ndarray, cb: Codebook) -> tuple[float, int]:
    """Deterministic selection of the max-|correlation| codeword.

    Ties break toward the lowest index. Returns (u, codeword_index) with
    u = g . c, or (0.0, 0) for the all-zero segment.
    """
    g = _check_segment(g_segment, cb)
    if not np.any(g):
        return 0.0, 0
    corr = cb.columns.T @ g
    i = int(np.argmax(np.abs(corr)))
    return float(corr[i]), i


def quantize_pseudo_norm(u: float, u_min: float, u_max: float, s: int, rng: Stream) -> int:
    """Stochastically round u onto the s+1 grid points of [u_min, u_max].

    Rounds to one of the two adjacent grid points with probabilities
    chosen so the decoded expectation equals u. Consumes one uniform.

    Raises:
        OutOfRange: u outside [u_min, u_max] by more than the slack.
    """
    if s < 1:
        raise ValueError("grid rounding needs s >= 1; s = 0 transmits exact norms")
    if u_max < u_min:
        raise OutOfRange(f"empty interval: u_min={u_min} > u_max={u_max}")
    if u < u_min - RANGE_SLACK or u > u_max + RANGE_SLACK:
        raise OutOfRange(f"u={u} outside [{u_min}, {u_max}]")
    _, delta, k, p_lower = rounding_cell(u, u_min, u_max, s)
    if delta == 0.0:
        return 0
    return k if rng.uniform() < p_lower else k + 1


def rounding_cell(u: float, u_min: float, u_max: float,
                  s: int) -> tuple[float, float, int, float]:
    """Locate u on the s+1 point grid of [u_min, u_max].

    Returns (u clamped into the interval, grid step delta, k, p_lower):
    the clamped u lies between grid points k and k+1 and rounds down to
    k with probability p_lower, which keeps the rounding unbiased. A
    degenerate interval has delta = 0, k = 0 and p_lower = 1.
    """
    u = min(max(u, u_min), u_max)
    delta = (u_max - u_min) / s
    if delta == 0.0:
        return u, delta, 0, 1.0
    k = min(int((u - u_min) / delta), s - 1)
    return u, delta, k, ((k + 1) * delta + u_min - u) / delta


def decode_pseudo_norm(level: int | np.ndarray, u_min: float, u_max: float,
                       s: int) -> float | np.ndarray:
    """Grid value u_min + level * (u_max - u_min) / s, elementwise for arrays."""
    if s < 1:
        raise ValueError("no grid when s = 0")
    return u_min + level * ((u_max - u_min) / s)


def segment_gradient(g: np.ndarray, segment_dim: int) -> np.ndarray:
    """Reshape to ceil(d/d') rows of length d', zero-padding the tail."""
    d = g.shape[0]
    n_seg = -(-d // segment_dim)
    padded = np.zeros(n_seg * segment_dim)
    padded[:d] = g
    return padded.reshape(n_seg, segment_dim)


def _f32_down(x: float) -> float:
    f = float(np.float32(x))
    if f > x:
        f = float(np.nextafter(np.float32(f), np.float32(-np.inf)))
    return f


def _f32_up(x: float) -> float:
    f = float(np.float32(x))
    if f < x:
        f = float(np.nextafter(np.float32(f), np.float32(np.inf)))
    return f


def compress(g: np.ndarray, cb: Codebook, s: int,
             variant: Variant | str = Variant.GREEDY,
             rng: Stream | None = None) -> CompressedGradient:
    """Quantize a full gradient segment by segment.

    u_min/u_max are taken over this gradient's own segment pseudo-norms
    and rounded outward to f32 before the grid is built, so quantization
    happens against exactly the interval the receiver will see. Each
    segment draws from its own substream ``rng.derive(j)``, which makes
    the result independent of segment evaluation order.

    Args:
        g: gradient of any length (the tail segment is zero-padded).
        s: pseudo-norm grid levels; 0 transmits exact (f32) norms.
        rng: required unless the variant is greedy and s == 0.
    """
    variant = Variant(variant)
    g = _check_gradient(g)
    if g.shape[0] < 1:
        raise InvalidGradient("empty gradient")
    if s < 0:
        raise ValueError(f"level count must be >= 0, got {s}")
    if rng is None:
        if variant is Variant.UNBIASED or s >= 1:
            raise ValueError("an rng stream is required for stochastic quantization")
        rng = Stream(0)  # never consumed

    segments = segment_gradient(g, cb.dim)
    streams = [rng.derive(j) for j in range(segments.shape[0])]
    if variant is Variant.UNBIASED:
        picks = [quantize_unbiased(seg, cb, st) for seg, st in zip(segments, streams)]
    else:
        picks = [quantize_greedy(seg, cb) for seg in segments]

    norms = [u for u, _ in picks]
    u_min = _f32_down(min(norms))
    u_max = _f32_up(max(norms))
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise Overflow("pseudo-norms exceed the 32-bit float range of the wire format")

    grid = None
    if s >= 1:
        grid = np.array([quantize_pseudo_norm(u, u_min, u_max, s, st)
                         for u, st in zip(norms, streams)], dtype=np.int64)
    else:
        norms = np.array(norms, dtype=np.float32)  # what the wire carries
    return CompressedGradient(total_dim=g.shape[0], segment_dim=cb.dim,
                              codeword_count=cb.count, levels=s, u_min=u_min, u_max=u_max,
                              indices=np.array([i for _, i in picks], dtype=np.int64),
                              norms=np.array(norms, dtype=np.float64), grid=grid)


def decode(cg: CompressedGradient, cb: Codebook) -> np.ndarray:
    """Reconstruct the gradient: concatenate u~ * c per segment, strip padding."""
    if cg.segment_dim != cb.dim or cg.codeword_count != cb.count:
        raise DimensionMismatch(
            f"compressed gradient carries d'={cg.segment_dim}, m={cg.codeword_count}; "
            f"codebook has d'={cb.dim}, m={cb.count}")
    u = cg.norms if cg.grid is None else decode_pseudo_norm(cg.grid, cg.u_min, cg.u_max,
                                                             cg.levels)
    return (cb.columns[:, cg.indices] * u).T.reshape(-1)[:cg.total_dim]


def aggregate(compressed: list[CompressedGradient], cb: Codebook) -> np.ndarray:
    """Coordinator-side mean of the decoded gradients."""
    if not compressed:
        raise EmptyInput("nothing to aggregate")
    first = compressed[0]
    total = decode(first, cb)
    for cg in compressed[1:]:
        if cg.total_dim != first.total_dim:
            raise DimensionMismatch(
                f"cannot aggregate gradients of dims {first.total_dim} and {cg.total_dim}")
        total += decode(cg, cb)
    return total / len(compressed)


def sample_unbiased_codes(g_segment: np.ndarray, cb: Codebook, n: int,
                          rng: Stream) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Monte-Carlo draws of the unbiased selector for one segment.

    Returns (indices, u values) for n independent draws; equivalent to n
    calls of :func:`quantize_unbiased` with fresh uniforms, but fast
    enough for 1e5-sample estimator checks.
    """
    return _select_unbiased(_check_segment(g_segment, cb), cb, rng, n)

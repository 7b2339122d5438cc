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


# Target size of one block's row x draw x codeword temporaries (512 KiB of f64)
_BLOCK = 1 << 16


@np.errstate(invalid="ignore")  # 0/0 on all-zero rows
def _select(segments: np.ndarray, mat: np.ndarray, draws: np.ndarray | None = None):
    """The selection rule on a batch of finite segments, one per row.

    Greedy when ``draws`` is None (mat = C^T): the largest |c . g_j|, ties
    to the lowest index, u = c . g_j. Unbiased otherwise (mat = pinv): each
    of row j's k draws picks codeword i with probability |p_i| / ||p||_1,
    p = pinv @ g_j, and u = sign(p_i) ||p||_1. All-zero rows pick 0 with
    u = 0. Returns (indices, u), rows x k (k = 1 when greedy). Rows are
    projected by stacked GEMVs that round like ``mat @ g_j``, unlike a GEMM.
    """
    k = 1 if draws is None else draws.shape[1]
    idx, u = np.zeros((len(segments), k), dtype=np.int64), np.zeros((len(segments), k))
    rows = max(1, _BLOCK // max(1, k * mat.shape[0]))  # k = 0 draws is allowed
    for lo in range(0, len(segments), rows):
        block = segments[lo:lo + rows]
        p = np.matmul(mat, block[:, :, None])[:, :, 0]
        if draws is None:
            i = np.argmax(np.abs(p), axis=1)[:, None]
            v = np.take_along_axis(p, i, axis=1)
        else:
            l1 = np.abs(p).sum(axis=1, keepdims=True)
            cdf = np.cumsum(np.abs(p) / l1, axis=1)[:, None, :-1]
            # as searchsorted(cdf[:-1], draw, side="right"): the index stays
            # below m even if the cumsum's last entry rounds below a draw
            i = np.count_nonzero(cdf <= draws[lo:lo + rows, :, None], axis=2)
            v = np.copysign(l1, np.take_along_axis(p, i, axis=1))
        live = np.any(block, axis=1)
        idx[lo:lo + rows][live], u[lo:lo + rows][live] = i[live], v[live]
    return idx, u


def quantize_unbiased(g_segment: np.ndarray, cb: Codebook, rng: Stream) -> tuple[float, int]:
    """Probabilistic codeword selection; unbiased in expectation.

    Consumes exactly one uniform draw from ``rng`` (inverse CDF over the
    selection probabilities), so results are reproducible from the
    stream seed alone.

    Returns:
        (u, codeword_index) with u = sign(p_i) * ||p||_1, or (0.0, 0)
        for the all-zero segment.
    """
    idx, u = sample_unbiased_codes(g_segment, cb, 1, rng)
    return float(u[0]), int(idx[0])


def quantize_greedy(g_segment: np.ndarray, cb: Codebook) -> tuple[float, int]:
    """Deterministic selection of the max-|correlation| codeword.

    Ties break toward the lowest index. Returns (u, codeword_index) with
    u = g . c, or (0.0, 0) for the all-zero segment.
    """
    idx, u = _select(_check_segment(g_segment, cb)[None], cb.columns.T)
    return float(u[0, 0]), int(idx[0, 0])


def quantize_pseudo_norm(u: float, u_min: float, u_max: float, s: int, rng: Stream) -> int:
    """Stochastically round u onto the s+1 grid points of [u_min, u_max].

    Rounds to one of the two adjacent grid points with probabilities
    chosen so the decoded expectation equals u. Consumes one uniform.

    Raises:
        OutOfRange: u or a bound not finite, or u outside the interval by more than the slack.
    """
    if s < 1:
        raise ValueError("grid rounding needs s >= 1; s = 0 transmits exact norms")
    if not (math.isfinite(u_min) and math.isfinite(u_max) and u_min <= u_max):
        raise OutOfRange(f"not a finite, non-empty interval: [{u_min}, {u_max}]")
    if not u_min - RANGE_SLACK <= u <= u_max + RANGE_SLACK:  # also false for NaN
        raise OutOfRange(f"u={u} outside [{u_min}, {u_max}]")
    _, delta, k, p_lower = rounding_cell(u, u_min, u_max, s)
    return int(round_in_cell(k, p_lower, rng.uniform())) if delta else 0


def rounding_cell(u, u_min: float, u_max: float, s: int):
    """Locate u (a float or an array) on the s+1 point grid of [u_min, u_max].

    Returns (u clamped into the interval, grid step delta, k, p_lower):
    the clamped u lies between grid points k and k+1 and rounds down to
    k with probability p_lower, which keeps the rounding unbiased. A
    degenerate interval has delta = 0, k = 0 and p_lower = 1.
    """
    u = np.minimum(np.maximum(u, u_min), u_max)
    delta = (u_max - u_min) / s
    if delta == 0.0:
        return u, delta, 0, 1.0
    k = np.minimum(((u - u_min) / delta).astype(np.int64), s - 1)
    return u, delta, k, ((k + 1) * delta + u_min - u) / delta


def round_in_cell(k, p_lower, draws):
    """The grid level of each uniform draw: k below p_lower, else k + 1."""
    return np.where(draws < p_lower, k, k + 1)


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


def _f32_outward(lo: float, hi: float) -> tuple[float, float]:
    """The f32 interval nearest to [lo, hi] that contains it; infinite beyond the f32 range."""
    with np.errstate(over="ignore"):
        a, b = float(np.float32(lo)), float(np.float32(hi))
        a = float(np.nextafter(np.float32(a), np.float32(-np.inf))) if a > lo else a
        b = float(np.nextafter(np.float32(b), np.float32(np.inf))) if b < hi else b
    return a, b


def compress(g: np.ndarray, cb: Codebook, s: int,
             variant: Variant | str = Variant.GREEDY,
             rng: Stream | None = None) -> CompressedGradient:
    """Quantize a full gradient, all segments as one batch.

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
    draws = rng.substream_uniforms(segments.shape[0], 2)
    if variant is Variant.UNBIASED:
        indices, norms = _select(segments, cb.pinv, draws[:, :1])
        # a segment that drew to select rounds on its next uniform
        draws = np.where(np.any(segments, axis=1), draws[:, 1], draws[:, 0])
    else:
        indices, norms = _select(segments, cb.columns.T)
        draws = draws[:, 0]
    indices, norms = indices[:, 0], norms[:, 0]

    # the first extreme in segment order decides between 0.0 and -0.0
    u_min, u_max = _f32_outward(float(norms[np.argmin(norms)]), float(norms[np.argmax(norms)]))
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise Overflow("pseudo-norms exceed the 32-bit float range of the wire format")

    grid = None
    if s >= 1:
        _, _, k, p_lower = rounding_cell(norms, u_min, u_max, s)
        grid = round_in_cell(k, p_lower, draws)
    else:
        norms = norms.astype(np.float32).astype(np.float64)  # what the wire carries
    return CompressedGradient(total_dim=g.shape[0], segment_dim=cb.dim,
                              codeword_count=cb.count, levels=s, u_min=u_min, u_max=u_max,
                              indices=indices, norms=norms, grid=grid)


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
    """n independent draws of the unbiased selector for one segment.

    Returns (indices, u values); draw r equals :func:`quantize_unbiased`
    on the r-th uniform of ``rng``. The all-zero segment draws nothing.
    """
    g = _check_segment(g_segment, cb)
    idx, u = _select(g[None], cb.pinv, (rng.uniforms(n) if np.any(g) else np.zeros(n))[None])
    return idx[0], u[0]

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
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .codebook import _U32_MAX, Codebook
from .errors import DimensionMismatch, EmptyInput, InvalidGradient, Overflow, out_of_range
from .rng import Stream


class Variant(enum.Enum):
    UNBIASED = "unbiased"
    GREEDY = "greedy"


@dataclass(eq=False)
class CompressedGradient:
    """A whole gradient as per-segment arrays, one entry per segment.

    ``indices`` (int64) are the codeword indices. ``norms`` (float64)
    are the pseudo-norms u~ the receiver decodes: in exact-norm mode
    (s = 0) the f32-rounded u the wire carries, otherwise the grid value
    of each level in ``grid`` (int64, None when s = 0), the u after
    stochastic rounding. u_min/u_max are the extreme pseudo-norms of this
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedGradient):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def _check_gradient(g: np.ndarray) -> np.ndarray:
    """g as float64 if it is a gradient, 1-D, non-empty and finite; else InvalidGradient."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] < 1:
        raise InvalidGradient(f"gradient must be a non-empty 1-D array, got shape {g.shape}")
    if not np.logical_and.reduce(np.isfinite(g)):
        raise InvalidGradient("gradient contains NaN or Inf")
    return g


# _check_segment, quantize_greedy and sample_unbiased_codes have no caller in hsq: they stay
# only while perfbench/tracing.py installs the last two by name (ROADMAP item 1)
def _check_segment(g_segment: np.ndarray, cb: Codebook) -> np.ndarray:
    g = _check_gradient(g_segment)
    if g.shape[0] != cb.dim:
        raise DimensionMismatch(f"segment length {g.shape[0]} != codebook dim {cb.dim}")
    return g


def _project(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ g per row g (or g . g with mat = rows[:, None]), rounded like the 1-D product."""
    return np.matmul(mat, rows[:, :, None])[:, :, 0]


# Target size of one block's row x draw x codeword temporaries (512 KiB of f64)
_BLOCK = 1 << 16


@functools.lru_cache(maxsize=256)  # compress asks twice per call, the same sizes each time
def _blocks(n: int, width: int) -> tuple[slice, ...]:
    """Slices over range(n) of as many items of width values as fit in _BLOCK, at least one."""
    step = max(1, _BLOCK // max(1, width))  # width 0: k = 0 draws is allowed
    return tuple(slice(lo, lo + step) for lo in range(0, n, step))


# Blocks of fewer segments x codewords than this search the full CDF: below it,
# the two-level search's extra numpy calls cost more than they save (at m = 256
# the two paths took about as long on a block of 32 to 48 segments)
_TWO_LEVEL_MIN = 1 << 14
# l1 range in which every quantity of the certificate is a normal, finite double
_L1_LO, _L1_HI = 2.0 ** -900, 2.0 ** 900


def _cdf_search(mag: np.ndarray, l1: np.ndarray):
    """The unbiased rule's exact arithmetic as a function of the draws.

    mag is rows x m (|p| per row), l1 rows x 1 (its sum). The search maps
    rows x k uniforms to the index of each, as searchsorted(cdf[:-1], draw,
    side="right") with cdf = cumsum(mag / l1): the index stays below m even
    if the cumsum's last entry rounds below a draw.
    """
    # a row with l1 = 0 divides by NaN, not 0: the same NaN CDF, which counts 0, without
    # the 0/0 warning; the entries before the last are the prefix sums of mag[:, :-1]
    cdf = np.add.accumulate(mag[:, :-1] / np.where(l1 > 0.0, l1, np.nan), axis=1)[:, None, :]
    return lambda x: np.add.reduce(cdf <= x[:, :, None], axis=2)


@functools.cache
def _group_size(m: int) -> int:
    """The largest divisor of m not above sqrt(m)."""
    return max(b for b in range(1, math.isqrt(m) + 1) if m % b == 0)


def _two_level_search(mag: np.ndarray, l1: np.ndarray):
    """_cdf_search's rule by a certified two-level search on unnormalized sums.

    The m codewords form groups of b. A draw x picks the group by the running
    sums of the group sums against t = x * l1, and the index inside it by the
    running sums A_{gb-1} .. A_{gb+b-1} of that group's entries, started from
    the sum before it (A_{-1} = 0). The index i is certified when as many of
    those A lie at or below t - tau as lie below t + tau, tau = 4 m 2^-53 l1,
    so that A_{i-1} <= t - tau and A_i >= t + tau, and when l1 lies in
    [2^-900, 2^900]. Rows with any uncertified draw go through _cdf_search,
    except rows with l1 = 0, all-zero segments among them: there its CDF is
    all NaN, so it picks index 0 for every draw.

    Why tau suffices, with u = 2^-53 and S_j the exact sums of mag[:j + 1]:
    in that l1 range t, tau and every sum are normal and finite. The exact
    rule compares c_j = cumsum(mag / l1)[j] <= x, and c_j is j + 1 rounded
    quotients summed in j rounding additions, so |c_j l1 - S_j| <= g(m) S_j
    + m 2^-1075 l1 (g(n) = n u / (1 - n u); the last term is the quotients'
    underflow). A_j passes through at most b - 1 roundings in its group's
    sum, G - 1 in the running sum of the G = m / b group sums and b more
    inside the group, 2b + G - 2 <= m in all, so |A_j - S_j| <= g(m) S_j.
    S_j <= l1 / (1 - g(m)) as l1 sums the same m terms, t is within u l1 of
    x l1 (x < 1, as uniforms are) and t -+ tau rounds by at most u l1. So
    |(A_j - t) - (c_j - x) l1| stays below (2 m + 2) u l1 (1 + O(m u)) < tau:
    A_{i-1} <= t - tau gives c_{i-1} < x and A_i >= t + tau gives c_i > x,
    and as c is nondecreasing the exact count is i. The candidate's own
    rounding only picks which i to check, so the result never depends on
    the BLAS kernel's sum order.
    """
    n, m = mag.shape
    b = _group_size(m)
    # the group and run axes go first, so each running sum and count is one
    # vectorized step over every row
    starts = np.zeros((m // b + 1, n))  # starts[g]: each row's sum before group g
    starts[1:] = (mag.reshape(-1, b) @ np.ones(b)).reshape(n, -1).T
    np.cumsum(starts, axis=0, out=starts)
    groups = mag.reshape(n, -1, b).transpose(2, 0, 1)
    rows = np.arange(n)[:, None]
    in_range = (l1 >= _L1_LO) & (l1 <= _L1_HI)
    # out of range: tau = inf, so no index is certified, and t stays finite
    tau = np.where(in_range, (4 * m * 2.0 ** -53) * l1, np.inf)
    scale = np.where(in_range, l1, 1.0)
    zero = l1[:, 0] == 0.0  # all of mag is 0, so the exact rule divides 0 by 0

    def search(x):
        t = x * scale
        g = (starts[1:-1, :, None] <= t).sum(axis=0)
        run = np.empty((b + 1,) + x.shape)  # A_{gb-1} .. A_{gb+b-1} per draw
        run[0] = starts[g, rows]
        run[1:] = groups[:, rows, g]
        np.cumsum(run, axis=0, out=run)
        lo = (run <= t - tau).sum(axis=0)
        hi = (run < t + tau).sum(axis=0)
        i = g * b + lo - 1
        bad = (lo != hi) | (hi > b)  # hi > b: no A in the group clears t from above
        if bad.any():
            i[zero] = 0  # what the exact rule's all-NaN CDF gives
            redo = bad.any(axis=1) & ~zero
            i[redo] = _cdf_search(mag[redo], l1[redo])(x[redo])
        return i

    return search


def _select(segments: np.ndarray, cb: Codebook, draws: np.ndarray | None = None):
    """The selection rule on a batch of finite segments, one per row.

    Greedy when ``draws`` is None: the largest |c . g_j|, ties to the
    lowest index, u = c . g_j. Unbiased otherwise: each of row j's k draws
    picks codeword i with probability |p_i| / ||p||_1, p = pinv @ g_j, and
    u = sign(p_i) ||p||_1. All-zero rows pick 0 with u = 0. Returns
    (indices, u), rows x k (k = 1 when greedy).
    """
    k = 1 if draws is None else draws.shape[1]
    mat = cb.columns.T if draws is None else cb.pinv
    # both searches and argmax pick 0 on an all-zero row, so only u is masked
    idx, u = np.empty((len(segments), k), dtype=np.int64), np.zeros((len(segments), k))
    for at in _blocks(len(segments), k * mat.shape[0]):
        block = segments[at]
        p, live = _project(mat, block), np.logical_or.reduce(block, axis=1)[:, None]
        rows = np.arange(len(p))[:, None]
        if draws is None:
            i = idx[at] = np.abs(p).argmax(axis=1)[:, None]
            np.copyto(u[at], p[rows, i], where=live)
            continue
        mag = np.abs(p)
        l1 = np.add.reduce(mag, axis=1, keepdims=True)
        search = (_cdf_search if mag.size < _TWO_LEVEL_MIN else _two_level_search)(mag, l1)
        for c in _blocks(k, mat.shape[0]):  # draws too, if one row's exceed a block
            i = idx[at, c] = search(draws[at, c])
            np.copysign(l1, p[rows, i], out=u[at, c], where=live)
    return idx, u


def quantize_greedy(g_segment: np.ndarray, cb: Codebook) -> tuple[float, int]:
    """Deterministic selection of the max-|correlation| codeword.

    Ties break toward the lowest index. Returns (u, codeword_index) with
    u = g . c, or (0.0, 0) for the all-zero segment.
    """
    idx, u = _select(_check_segment(g_segment, cb)[None], cb)
    return float(u[0, 0]), int(idx[0, 0])


def rounding_cell(u, u_min, u_max, s: int):
    """Locate a u inside [u_min, u_max] on the s+1 point grid of that interval, elementwise.

    u and the bounds may be floats or arrays that broadcast, so each row
    of u can have an interval of its own. Returns (grid step delta, k,
    p_lower): u lies between grid points k and k+1 and rounds down to k
    with probability p_lower, which keeps the rounding unbiased. A
    degenerate interval has delta = 0, k = 0 and p_lower = 1.
    """
    delta = (u_max - u_min) / s
    dead = delta == 0.0
    step = delta + dead  # 1 on a degenerate interval: no 0/0, and k = 0 as |u - u_min| < 1
    k = np.minimum(np.true_divide(u - u_min, step).astype(np.int64), s - 1)
    return delta, k, np.where(dead, 1.0, ((k + 1) * step + u_min - u) / step)


def round_in_cell(k, p_lower, draws):
    """The grid level of each uniform draw: k below p_lower, else k + 1."""
    return k + (draws >= p_lower)


def decode_pseudo_norm(level: int | np.ndarray, u_min: float, u_max: float,
                       s: int) -> float | np.ndarray:
    """Grid value u_min + level * (u_max - u_min) / s, elementwise for arrays."""
    if s < 1:
        raise ValueError("no grid when s = 0")
    return u_min + level * ((u_max - u_min) / s)


def segment_gradient(g: np.ndarray, segment_dim: int) -> np.ndarray:
    """Reshape the last axis to ceil(d/d') rows of length d', zero-padding the tail."""
    d = g.shape[-1]
    n_seg = -(-d // segment_dim)
    padded = np.zeros(g.shape[:-1] + (n_seg * segment_dim,))
    padded[..., :d] = g
    return padded.reshape(g.shape[:-1] + (n_seg, segment_dim))


# Rows (lo, hi) of a bounds array; hi rounds up to f32 as -hi rounds down, negation being exact
_OUTWARD = np.array([[1.0], [-1.0]])
_F32_MAX = float(np.finfo(np.float32).max)
_F32_DOWN = np.float32(-np.inf)


def _f32_outward(bounds: np.ndarray) -> np.ndarray:
    """Per column of bounds (lo, hi), lo <= hi, the nearest f32 interval around it.

    Raises Overflow, before the cast would overflow, if a bound lies outside
    the f32 range or is NaN: as lo <= hi, that is when lo or -hi is below -max.
    """
    x = bounds * _OUTWARD
    if not np.minimum.reduce(x, axis=None) >= -_F32_MAX:
        raise Overflow("pseudo-norms exceed the 32-bit float range of the wire format")
    a = x.astype(np.float32)
    np.nextafter(a, _F32_DOWN, out=a, where=a > x)
    return a.astype(np.float64) * _OUTWARD


def _compress_rows(rows: np.ndarray, cb: Codebook, s: int, variant: Variant, streams: Stream):
    """The compress rule on n finite gradients of one length, one per row.

    Row r draws from child r of ``streams`` (a stream of n children, or a
    plain stream when n = 1), so it equals ``compress`` of that row alone
    with that child. Returns (indices, norms, grid, u_min, u_max): n x
    segments arrays as in CompressedGradient, and the n rows' intervals.
    """
    segments = segment_gradient(rows, cb.dim)
    n, n_seg = segments.shape[:2]
    segments = segments.reshape(n * n_seg, cb.dim)
    # segment j draws from streams.derive(j)
    draws = streams.child_uniforms(n_seg, 2).reshape(n * n_seg, 2)
    if variant is Variant.UNBIASED:
        indices, norms = _select(segments, cb, draws[:, :1])
        # a segment that drew to select rounds on its next uniform
        draws = np.where(np.logical_or.reduce(segments, axis=1), draws[:, 1], draws[:, 0])
    else:
        indices, norms = _select(segments, cb)
        draws = draws[:, 0]
    shape = (n, n_seg)
    indices, norms, draws = indices.reshape(shape), norms.reshape(shape), draws.reshape(shape)

    # the first extreme in segment order decides between 0.0 and -0.0
    u_min, u_max = _f32_outward(
        norms[np.arange(n), np.array([norms.argmin(axis=1), norms.argmax(axis=1)])])

    grid = None
    if s >= 1:
        # one row's bounds go as scalars, which numpy's ufuncs take by a faster path;
        # every u lies in its row's interval, which was rounded outward around it
        lo, hi = (u_min[:, None], u_max[:, None]) if n > 1 else (u_min[0], u_max[0])
        _, k, p_lower = rounding_cell(norms, lo, hi, s)
        grid = round_in_cell(k, p_lower, draws)
        norms = decode_pseudo_norm(grid, lo, hi, s)
    else:
        norms = norms.astype(np.float32).astype(np.float64)  # what the wire carries
    return indices, norms, grid, u_min, u_max


def compress(g: np.ndarray, cb: Codebook, s: int, variant: Variant | str,
             rng: Stream) -> CompressedGradient:
    """Quantize a full gradient, all segments as one batch.

    u_min/u_max are taken over this gradient's own segment pseudo-norms
    and rounded outward to f32 before the grid is built, so quantization
    happens against exactly the interval the receiver will see. Each
    segment draws from its own substream ``rng.derive(j)``, which makes
    the result independent of segment evaluation order.

    Args:
        g: gradient of any length (the tail segment is zero-padded).
        s: pseudo-norm grid levels; 0 transmits exact (f32) norms.
        rng: the segments' parent stream (greedy at s = 0 draws nothing from it).
    """
    variant = Variant(variant)
    g = _check_gradient(g)
    if bad := level_violations(s):
        raise ValueError(bad[0])
    s = int(s)  # a numpy unsigned s would turn the int64 grid arithmetic into floats

    indices, norms, grid, u_min, u_max = _compress_rows(g[None], cb, s, variant, rng)
    return CompressedGradient(total_dim=g.shape[0], segment_dim=cb.dim,
                              codeword_count=cb.count, levels=s,
                              u_min=float(u_min[0]), u_max=float(u_max[0]), indices=indices[0],
                              norms=norms[0], grid=None if grid is None else grid[0])


def level_violations(s: int) -> list[str]:
    """The rule for a pseudo-norm grid: an int s >= 0 levels (0 = raw f32), within the
    u32 a frame header carries it in."""
    return out_of_range("s", s, 0, _U32_MAX)


def _is_column(a: np.ndarray, n: int, kinds: str) -> bool:
    """Whether a holds n values along one axis, of a dtype kind in kinds: a well-formed
    field of a CompressedGradient with n segments."""
    return a.shape == (n,) and a.dtype.kind in kinds


def code_violations(cg: CompressedGradient) -> list[str]:
    """The rule for a compressed gradient, one "field: problem" message per fault: ints
    d, d', m >= 1 and s >= 0 within a frame header's u32, and for each of the ceil(d/d')
    segments an int index in [0, m) and a finite float pseudo-norm, along one axis."""
    out = [v for name, least in (("total_dim", 1), ("segment_dim", 1), ("codeword_count", 1),
                                 ("levels", 0))
           for v in out_of_range(name, getattr(cg, name), least, _U32_MAX)]
    if out:  # the header sizes the columns
        return out
    n_seg, m = -(-cg.total_dim // cg.segment_dim), cg.codeword_count
    indices, norms = np.asarray(cg.indices), np.asarray(cg.norms)
    if indices.ndim == 1 and len(indices) != n_seg:
        return [f"indices: {len(indices)} segments cannot carry d={cg.total_dim} "
                f"at d'={cg.segment_dim}"]
    # as unsigned, a negative index wraps above m, so one comparison checks both ends
    if not (_is_column(indices, n_seg, "iu") and _is_column(norms, n_seg, "f")
            and np.logical_and.reduce(indices.astype(np.uint64) < m)
            and np.logical_and.reduce(np.isfinite(norms))):
        return [f"indices, norms: each segment needs a pseudo-norm and an index in [0, {m}),"
                " a finite float and an int, along one axis"]
    return []


def decode(cg: CompressedGradient, cb: Codebook) -> np.ndarray:
    """Reconstruct the gradient: concatenate u~ * c per segment, strip padding.

    Raises InvalidGradient for an object that is not a CompressedGradient and
    DimensionMismatch for a code that code_violations refuses or that does not
    fit cb.
    """
    if not isinstance(cg, CompressedGradient):
        raise InvalidGradient(f"cannot decode a {type(cg).__name__}, only a CompressedGradient")
    if bad := code_violations(cg):
        raise DimensionMismatch("; ".join(bad))
    if cg.segment_dim != cb.dim or cg.codeword_count != cb.count:
        raise DimensionMismatch(
            f"compressed gradient carries d'={cg.segment_dim}, m={cg.codeword_count}; "
            f"codebook has d'={cb.dim}, m={cb.count}")
    return _decoded(np.asarray(cg.indices), np.asarray(cg.norms), cb, cg.total_dim)


def _decoded(indices: np.ndarray, u: np.ndarray, cb: Codebook, total_dim: int) -> np.ndarray:
    """u * c per segment, concatenated and cut to total_dim along the last axis; others are rows."""
    decoded = cb.columns.T[indices] * u[..., None]
    return decoded.reshape(indices.shape[:-1] + (-1,))[..., :total_dim]


def aggregate(compressed: list[CompressedGradient], cb: Codebook) -> np.ndarray:
    """Coordinator-side mean of the decoded gradients."""
    if not compressed:
        raise EmptyInput("nothing to aggregate")
    total = decode(compressed[0], cb)
    for cg in compressed[1:]:
        decoded = decode(cg, cb)
        if decoded.shape != total.shape:
            raise DimensionMismatch(
                f"cannot aggregate gradients of dims {total.shape[0]} and {decoded.shape[0]}")
        total += decoded
        del decoded  # before the next decode, which can then reuse its memory
    return total / len(compressed)


def sample_unbiased_codes(g_segment: np.ndarray, cb: Codebook, n: int,
                          rng: Stream) -> tuple[np.ndarray, np.ndarray]:
    """n independent draws of the unbiased selector for one segment.

    Returns (indices, u values); draw r is ``_select``'s unbiased rule on
    the r-th uniform of ``rng``. The all-zero segment draws nothing.
    """
    g = _check_segment(g_segment, cb)
    idx, u = _select(g[None], cb, (rng.uniforms(n) if np.any(g) else np.zeros(n))[None])
    return idx[0], u[0]

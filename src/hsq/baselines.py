"""Reference gradient compressors: QSGD, TernGrad, sign quantization.

These exist for head-to-head comparisons in the simulator and for the
bit-accounting tables; none of them shares machinery with the
hyper-sphere path beyond its gradient check. All stochastic variants
are unbiased and draw from the same deterministic Stream type, so
simulator runs stay reproducible across schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import _U32_MAX
from .errors import DimensionMismatch, Overflow, out_of_range, real_violations, refuse_argument
from .quantizers import _check_gradient, _is_column
from .rng import Stream

QSGD_BUCKET_SIZE = 512


# ---------------------------------------------------------------------------
# QSGD: per-bucket L2 norm + stochastic level rounding


@dataclass
class QsgdCode:
    dim: int
    levels: int
    bucket_size: int
    norms: np.ndarray      # f64, one per bucket
    level_idx: np.ndarray  # int64 in [0, levels]
    signs: np.ndarray      # int8 in {-1, +1}


def compress_qsgd(g: np.ndarray, levels: int, rng: Stream,
                  bucket_size: int = QSGD_BUCKET_SIZE) -> QsgdCode:
    """Quantize |g_i| / ||bucket||_2 onto a uniform grid of `levels` steps.

    Each coordinate rounds to one of the two adjacent grid points with
    probabilities that keep the decoded expectation equal to g. A zero
    bucket encodes as norm 0 with all levels 0.
    """
    g = _check_gradient(g)
    refuse_argument(out_of_range("levels", levels, 1, _U32_MAX)
                    + out_of_range("bucket_size", bucket_size, 1, _U32_MAX))
    d = g.shape[0]
    n_full = d // bucket_size
    rows = g[:n_full * bucket_size].reshape(n_full, bucket_size)
    tail = g[n_full * bucket_size:]
    # Row @ column is numpy's dot, so each norm is bit-identical to
    # np.linalg.norm of its bucket.
    sq = np.empty(-(-d // bucket_size))
    with np.errstate(over="ignore"):  # refused below, as hsq refuses pseudo-norms past f32
        sq[:n_full] = (rows[:, None, :] @ rows[:, :, None]).ravel()
        if tail.size:
            sq[n_full] = tail @ tail
    if not np.maximum.reduce(sq) < np.inf:  # squares are >= 0, so the largest is inf if any is
        raise Overflow("a bucket's squared norm overflows float64")
    norms = np.sqrt(sq)
    per_coord = _per_coordinate(norms, d, bucket_size)
    r = np.divide(np.abs(g), per_coord, out=np.zeros(d), where=per_coord != 0.0)
    r *= levels
    base = np.minimum(np.floor(r), levels - 1)
    level_idx = (base + (rng.uniforms(d) < (r - base))).astype(np.int64)
    signs = np.where(g >= 0, 1, -1).astype(np.int8)
    return QsgdCode(dim=d, levels=levels, bucket_size=bucket_size,
                    norms=norms, level_idx=level_idx, signs=signs)


def _column(name: str, a, n: int, kinds: str, ok, what: str) -> list[str]:
    """[] if _is_column(a, n, kinds, ok), else one "name: needs n what" message."""
    good = _is_column(np.asarray(a), n, kinds, ok)
    return [] if good else [f"{name}: needs {n} {what}, along one axis"]


def _is_sign(a: np.ndarray) -> np.ndarray:
    """Whether each value of a is 1 or -1."""
    return (a == 1) | (a == -1)


def qsgd_violations(code: QsgdCode) -> list[str]:
    """The rule for a QSGD code, one "field: problem" message per fault: ints dim >= 1 and
    levels and bucket_size in [1, 2^32 - 1], then ceil(dim / bucket_size) finite float norms
    >= 0, dim int levels in [0, levels] and dim int signs in {-1, +1}."""
    d, s, bucket = code.dim, code.levels, code.bucket_size
    if bad := (out_of_range("dim", d, 1) + out_of_range("levels", s, 1, _U32_MAX)
               + out_of_range("bucket_size", bucket, 1, _U32_MAX)):
        return bad  # they size the columns
    return (_column("norms", code.norms, -(-d // bucket), "f", lambda a: (a >= 0) & (a < np.inf),
                    "finite floats >= 0")
            # as unsigned, a negative level wraps above s, so one comparison checks both ends
            + _column("level_idx", code.level_idx, d, "iu", lambda a: a.astype(np.uint64) <= s,
                      f"ints in [0, {s}]")
            + _column("signs", code.signs, d, "iu", _is_sign, "ints in {-1, +1}"))


def decode_qsgd(code: QsgdCode) -> np.ndarray:
    if bad := qsgd_violations(code):
        raise DimensionMismatch("; ".join(bad))
    out = np.asarray(code.level_idx, dtype=np.float64) / code.levels * code.signs
    return out * _per_coordinate(code.norms, code.dim, code.bucket_size)


def _per_coordinate(norms: np.ndarray, d: int, bucket_size: int) -> np.ndarray:
    """Each of the d coordinates' bucket norm, in O(d) memory whatever the bucket size."""
    counts = np.full(len(norms), bucket_size)
    counts[-1] = d - (len(norms) - 1) * bucket_size  # the tail bucket
    return np.repeat(norms, counts)


def qsgd_dense_bits(d: int, levels: int, bucket_size: int = QSGD_BUCKET_SIZE) -> float:
    """Payload of the dense encoding: level + sign bits per coordinate,
    plus one 32-bit norm per bucket."""
    per_coord = int(levels).bit_length() + 1  # ceil(log2(levels+1)) level bits + sign
    return d * per_coord + 32 * (-(-d // bucket_size))


# ---------------------------------------------------------------------------
# TernGrad: {-1, 0, +1} with a shared max-magnitude scaler


@dataclass
class TernGradCode:
    dim: int
    scaler: float
    ternary: np.ndarray  # int8 in {-1, 0, +1}


def compress_terngrad(g: np.ndarray, rng: Stream) -> TernGradCode:
    """Keep coordinate i with probability |g_i| / max|g|, signed.

    Decoding multiplies by the scaler, so the expectation equals g.
    """
    g = _check_gradient(g)
    scaler = float(np.max(np.abs(g)))
    if scaler == 0.0:
        return TernGradCode(dim=g.shape[0], scaler=0.0,
                            ternary=np.zeros(g.shape[0], dtype=np.int8))
    keep = rng.uniforms(g.shape[0]) < np.abs(g) / scaler
    ternary = (np.where(g >= 0, 1, -1) * keep).astype(np.int8)
    return TernGradCode(dim=g.shape[0], scaler=scaler, ternary=ternary)


def terngrad_violations(code: TernGradCode) -> list[str]:
    """The rule for a TernGrad code: an int dim >= 1, a finite real scaler >= 0 and dim int
    entries in {-1, 0, +1}."""
    if bad := out_of_range("dim", code.dim, 1):
        return bad
    return real_violations("scaler", code.scaler, 0.0) + _column(
        "ternary", code.ternary, code.dim, "iu", lambda a: (a >= -1) & (a <= 1),
        "ints in {-1, 0, +1}")


def decode_terngrad(code: TernGradCode) -> np.ndarray:
    if bad := terngrad_violations(code):
        raise DimensionMismatch("; ".join(bad))
    return code.scaler * np.asarray(code.ternary, dtype=np.float64)


TERNGRAD_SCALER_BITS = 32


def ternary_bits(d: int) -> float:
    """log2(3) bits per ternary coordinate."""
    return d * math.log2(3.0)


# ---------------------------------------------------------------------------
# Sign quantization: one bit per coordinate


@dataclass
class SignCode:
    dim: int
    signs: np.ndarray  # int8 in {-1, +1}


def compress_sign(g: np.ndarray) -> SignCode:
    """Transmit sign(g) only; zeros count as positive."""
    g = _check_gradient(g)
    return SignCode(dim=g.shape[0], signs=np.where(g >= 0, 1, -1).astype(np.int8))


def sign_violations(code: SignCode) -> list[str]:
    """The rule for a sign code: an int dim >= 1 and dim int signs in {-1, +1}."""
    if bad := out_of_range("dim", code.dim, 1):
        return bad
    return _column("signs", code.signs, code.dim, "iu", _is_sign, "ints in {-1, +1}")


def decode_sign(code: SignCode) -> np.ndarray:
    if bad := sign_violations(code):
        raise DimensionMismatch("; ".join(bad))
    return np.asarray(code.signs, dtype=np.float64)


def sign_bits(d: int) -> float:
    return float(d)

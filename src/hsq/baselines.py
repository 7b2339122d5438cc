"""Reference gradient compressors: QSGD, TernGrad, sign quantization.

These exist for head-to-head comparisons in the simulator and for the
bit-accounting tables; none of them shares machinery with the
hyper-sphere path. All stochastic variants are unbiased and draw from
the same deterministic Stream type, so simulator runs stay reproducible
across schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGradient
from .rng import Stream

QSGD_BUCKET_SIZE = 512


def _checked(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] < 1:
        raise InvalidGradient("gradient must be a non-empty 1-D array")
    if not np.all(np.isfinite(g)):
        raise InvalidGradient("gradient contains NaN or Inf")
    return g


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
    g = _checked(g)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
    d = g.shape[0]
    n_buckets = -(-d // bucket_size)
    norms = np.empty(n_buckets)
    level_idx = np.empty(d, dtype=np.int64)
    u = rng.uniforms(d)
    for b in range(n_buckets):
        lo, hi = b * bucket_size, min((b + 1) * bucket_size, d)
        chunk = g[lo:hi]
        norm = float(np.linalg.norm(chunk))
        norms[b] = norm
        if norm == 0.0:
            level_idx[lo:hi] = 0
            continue
        r = np.abs(chunk) / norm * levels
        base = np.minimum(np.floor(r), levels - 1)
        level_idx[lo:hi] = (base + (u[lo:hi] < (r - base))).astype(np.int64)
    signs = np.where(g >= 0, 1, -1).astype(np.int8)
    return QsgdCode(dim=d, levels=levels, bucket_size=bucket_size,
                    norms=norms, level_idx=level_idx, signs=signs)


def decode_qsgd(code: QsgdCode) -> np.ndarray:
    out = code.level_idx.astype(np.float64) / code.levels * code.signs
    return out * np.repeat(code.norms, code.bucket_size)[:code.dim]


def qsgd_dense_bits(d: int, levels: int, bucket_size: int = QSGD_BUCKET_SIZE) -> float:
    """Payload of the dense encoding: level + sign bits per coordinate,
    plus one 32-bit norm per bucket."""
    per_coord = levels.bit_length() + 1  # ceil(log2(levels+1)) level bits + sign
    return d * per_coord + 32 * (-(-d // bucket_size))


def qsgd_sparse_bits(d: int, levels: int = 1) -> float:
    """Expected payload under sparse (gap-coded) encoding.

    With few levels most coordinates round to zero; QSGD then sends only
    the nonzeros as Elias-gamma coded position gaps plus sign and level.
    The expected nonzero count is at most levels^2 + levels * sqrt(d),
    and a gap of ~d/nnz costs about 2*log2(d/nnz) + 1 bits, which gives
    the sqrt(d) * log(d) total this encoding is known for at levels = 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    nnz = min(float(d), levels * levels + levels * math.sqrt(d))
    gap_bits = 2.0 * math.log2(max(d / nnz, 1.0)) + 1.0
    per_nz = gap_bits + 1.0 + float(levels.bit_length())
    return 32.0 + nnz * per_nz


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
    g = _checked(g)
    scaler = float(np.max(np.abs(g)))
    if scaler == 0.0:
        return TernGradCode(dim=g.shape[0], scaler=0.0,
                            ternary=np.zeros(g.shape[0], dtype=np.int8))
    keep = rng.uniforms(g.shape[0]) < np.abs(g) / scaler
    ternary = (np.where(g >= 0, 1, -1) * keep).astype(np.int8)
    return TernGradCode(dim=g.shape[0], scaler=scaler, ternary=ternary)


def decode_terngrad(code: TernGradCode) -> np.ndarray:
    return code.scaler * code.ternary.astype(np.float64)


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
    g = _checked(g)
    return SignCode(dim=g.shape[0], signs=np.where(g >= 0, 1, -1).astype(np.int8))


def decode_sign(code: SignCode) -> np.ndarray:
    return code.signs.astype(np.float64)


def sign_bits(d: int) -> float:
    return float(d)

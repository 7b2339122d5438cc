"""Binary frame codec and bit accounting for compressed gradients.

Frame layout (all multi-byte header fields little-endian):

    offset  size  field
    0       4     magic "HSQG"
    4       2     version (u16) = 1
    6       1     scheme (u8) = 1 for hyper-sphere frames
    7       4     d       (u32) total gradient length
    11      4     d'      (u32) segment length
    15      4     m       (u32) codeword count
    19      4     s       (u32) pseudo-norm grid levels
    23      4     u_min   (f32)
    27      4     u_max   (f32)
    31      -     payload

The payload packs ceil(d/d') records MSB-first within bytes, each
record being ceil(log2 m) index bits followed by ceil(log2 (s+1))
level bits; when s = 0 the level bits are replaced by the raw 32 bits
of the segment's f32 pseudo-norm (IEEE-754, most significant bit
first). The final byte is zero-padded.

Bit accounting (payload_bits / compression_ratio) excludes this fixed
header by default so that ratios describe the per-coordinate cost in
the large-d limit; pass include_header=True to amortize it over one
message of length d. SCHEMES is the one table of uplink compressors:
their bit accounting and the simulator's per-client step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import (QSGD_BUCKET_SIZE, TERNGRAD_SCALER_BITS, compress_qsgd, compress_sign,
                        compress_terngrad, decode_qsgd, decode_sign, decode_terngrad,
                        qsgd_dense_bits, sign_bits, ternary_bits)
from .errors import InvalidGradient, Overflow, UnknownScheme, WireFormatError
from .quantizers import CompressedGradient, SegmentCode, compress, decode, decode_pseudo_norm

MAGIC = b"HSQG"
VERSION = 1
HEADER = struct.Struct("<4sHBIIIIff")
HEADER_BITS = HEADER.size * 8  # 248

SCHEME_HSQ = 1
_U32_MAX = 0xFFFFFFFF


def index_bits(m: int) -> int:
    """Bits for a codeword index: ceil(log2 m), i.e. 0 when m = 1."""
    return (m - 1).bit_length()


def level_bits(s: int) -> int:
    """Bits for a grid level: ceil(log2 (s+1)); raw-f32 mode (s=0) uses 32."""
    return s.bit_length() if s >= 1 else 32


class _BitWriter:
    """MSB-first bit packer backed by one big integer."""

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits

    def getvalue(self) -> bytes:
        pad = (-self._nbits) % 8
        return (self._acc << pad).to_bytes((self._nbits + pad) // 8, "big")


class _BitReader:
    def __init__(self, data: bytes) -> None:
        self._acc = int.from_bytes(data, "big")
        self._total = len(data) * 8
        self._pos = 0

    def read(self, nbits: int) -> int:
        if self._pos + nbits > self._total:
            raise WireFormatError("payload truncated")
        self._pos += nbits
        return (self._acc >> (self._total - self._pos)) & ((1 << nbits) - 1)


def _f32_clean(x: float) -> bool:
    return math.isfinite(x) and float(np.float32(x)) == x


def encode_frame(cg: CompressedGradient) -> bytes:
    """Serialize a compressed gradient; exact inverse of decode_frame.

    Fields that travel as f32 (u_min, u_max, and the pseudo-norms in
    s=0 mode) must already be exactly representable in f32, otherwise
    the roundtrip could not be bit-exact and the frame is refused.
    """
    if cg.total_dim < 1:
        raise InvalidGradient("cannot encode an empty gradient")
    if cg.segment_dim < 1 or cg.codeword_count < 1:
        raise WireFormatError("segment_dim and codeword_count must be >= 1")
    for name, value in (("d", cg.total_dim), ("d'", cg.segment_dim),
                        ("m", cg.codeword_count), ("s", cg.levels)):
        if value > _U32_MAX:
            raise Overflow(f"{name}={value} does not fit in u32")
    n_seg = -(-cg.total_dim // cg.segment_dim)
    if len(cg.segments) != n_seg:
        raise WireFormatError(
            f"expected {n_seg} segments for d={cg.total_dim}, d'={cg.segment_dim}; "
            f"got {len(cg.segments)}")
    if cg.u_min > cg.u_max:
        raise WireFormatError(f"u_min={cg.u_min} > u_max={cg.u_max}")
    if not (_f32_clean(cg.u_min) and _f32_clean(cg.u_max)):
        raise WireFormatError("u_min/u_max must be finite f32 values")

    ib, s = index_bits(cg.codeword_count), cg.levels
    w = _BitWriter()
    for seg in cg.segments:
        if not 0 <= seg.codeword_index < cg.codeword_count:
            raise WireFormatError(f"codeword index {seg.codeword_index} out of range")
        w.write(seg.codeword_index, ib)
        if s >= 1:
            if seg.level is None or not 0 <= seg.level <= s:
                raise WireFormatError(f"level {seg.level} invalid for s={s}")
            w.write(seg.level, level_bits(s))
        else:
            if seg.level is not None:
                raise WireFormatError("s=0 frames carry raw norms, not levels")
            if not _f32_clean(seg.pseudo_norm):
                raise WireFormatError(f"pseudo-norm {seg.pseudo_norm} is not a finite f32")
            (raw,) = struct.unpack(">I", struct.pack(">f", seg.pseudo_norm))
            w.write(raw, 32)

    header = HEADER.pack(MAGIC, VERSION, SCHEME_HSQ, cg.total_dim, cg.segment_dim,
                         cg.codeword_count, cg.levels, cg.u_min, cg.u_max)
    return header + w.getvalue()


def decode_frame(buf: bytes) -> CompressedGradient:
    """Parse a frame back into a CompressedGradient.

    In grid mode (s >= 1) the exact pre-rounding pseudo-norm never
    crosses the wire, so the reconstructed segments carry the grid value
    u_min + level*(u_max-u_min)/s in its place.
    """
    if len(buf) < HEADER.size:
        raise WireFormatError(f"frame shorter than the {HEADER.size}-byte header")
    magic, version, scheme, d, d_prime, m, s, u_min, u_max = HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireFormatError(f"unsupported version {version}")
    if scheme != SCHEME_HSQ:
        raise WireFormatError(f"unsupported scheme code {scheme}")
    if d < 1 or d_prime < 1 or m < 1:
        raise WireFormatError("d, d', m must all be >= 1")
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise WireFormatError(f"u_min={u_min}, u_max={u_max} must be finite")
    if u_min > u_max:
        raise WireFormatError(f"u_min={u_min} > u_max={u_max}")

    n_seg = -(-d // d_prime)
    record = index_bits(m) + level_bits(s)
    expect = (n_seg * record + 7) // 8
    if len(buf) - HEADER.size != expect:
        raise WireFormatError(
            f"payload is {len(buf) - HEADER.size} bytes, expected {expect}")
    if buf[-1] & ((1 << (8 * expect - n_seg * record)) - 1):
        raise WireFormatError("padding bits of the last byte must be zero")

    r = _BitReader(buf[HEADER.size:])
    ib = index_bits(m)
    segments = []
    for _ in range(n_seg):
        idx = r.read(ib)
        if idx >= m:
            raise WireFormatError(f"codeword index {idx} out of range for m={m}")
        if s >= 1:
            level = r.read(level_bits(s))
            if level > s:
                raise WireFormatError(f"level {level} out of range for s={s}")
            segments.append(SegmentCode(codeword_index=idx,
                                        pseudo_norm=decode_pseudo_norm(level, u_min, u_max, s),
                                        level=level))
        else:
            (u,) = struct.unpack(">f", r.read(32).to_bytes(4, "big"))
            if not math.isfinite(u):
                raise WireFormatError(f"raw pseudo-norm {u} is not finite")
            segments.append(SegmentCode(codeword_index=idx, pseudo_norm=float(u),
                                        level=None))
    return CompressedGradient(total_dim=d, segment_dim=d_prime, codeword_count=m,
                              levels=s, u_min=float(u_min), u_max=float(u_max),
                              segments=segments)


def random_frame(stream) -> CompressedGradient:
    """A random but valid frame, for codec self-checks.

    Every field the wire carries is drawn wire-representable (u bounds
    and raw norms already f32, grid-mode pseudo-norms equal to their
    grid value), so encode/decode must reproduce the frame
    field-for-field.
    """
    def pick(lo: int, hi: int, tag) -> int:
        return lo + int(stream.derive(tag).uniforms(1)[0] * (hi - lo + 1)) % (hi - lo + 1)

    d_prime = pick(1, 32, "dp")
    n_seg = pick(1, 20, "nseg")
    d = n_seg * d_prime - pick(0, d_prime - 1, "pad")
    m = pick(1, 512, "m")
    s = 0 if stream.derive("s0").uniforms(1)[0] < 1 / 3 else pick(1, 127, "s")
    a, b = np.sort(np.float32(stream.derive("uminmax").normals(2) * 10))
    u_min, u_max = float(a), float(b)

    idx = (stream.derive("idx").uniforms(n_seg) * m).astype(int) % m
    segments = []
    for j in range(n_seg):
        if s >= 1:
            level = int(stream.derive("lvl", j).uniforms(1)[0] * (s + 1)) % (s + 1)
            segments.append(SegmentCode(codeword_index=int(idx[j]), level=level,
                                        pseudo_norm=decode_pseudo_norm(level, u_min, u_max, s)))
        else:
            raw = float(np.float32(stream.derive("raw", j).normals(1)[0] * 10))
            segments.append(SegmentCode(codeword_index=int(idx[j]),
                                        pseudo_norm=raw, level=None))
    return CompressedGradient(total_dim=d, segment_dim=d_prime, codeword_count=m,
                              levels=s, u_min=u_min, u_max=u_max, segments=segments)


def hsq_payload_bits(d: int, d_prime: int, m: int, s: int) -> int:
    """ceil(d/d') records of index + level (or raw f32) bits, unpadded."""
    return -(-d // d_prime) * (index_bits(m) + level_bits(s))


@dataclass(frozen=True)
class Scheme:
    """Everything the package knows about one uplink compressor.

    payload_bits(d, d_prime, m, s, bucket_size) is the cost of one
    gradient of length d without the fixed per-message header_bits;
    step(g, params, cb, rng) compresses one client gradient and returns
    what the coordinator decodes from it, reading s / variant /
    bucket_size from params (a fedsim.QuantizerScheme);
    natural_d(d_prime, bucket_size) is the length compression_ratio uses
    when d is omitted. Parameters a scheme does not use are ignored;
    missing ones it needs raise ValueError.
    """

    payload_bits: Callable[..., float]
    step: Callable[..., np.ndarray]
    header_bits: int = 0
    natural_d: Callable[..., int] = lambda d_prime, bucket_size: 1


def _hsq_bits(d, d_prime, m, s, bucket_size) -> float:
    if d_prime is None or m is None or s is None:
        raise ValueError("hsq accounting needs d_prime, m and s")
    return float(hsq_payload_bits(d, d_prime, m, s))


def _hsq_natural_d(d_prime, bucket_size) -> int:
    if d_prime is None:
        raise ValueError("hsq accounting needs d_prime")
    return d_prime


def _qsgd_bits(d, d_prime, m, s, bucket_size) -> float:
    if s is None:
        raise ValueError("qsgd accounting needs s (levels)")
    return qsgd_dense_bits(d, s, bucket_size)


SCHEMES = {
    "identity": Scheme(payload_bits=lambda d, *_: 32.0 * d, step=lambda g, *_: g),
    "hsq": Scheme(payload_bits=_hsq_bits, header_bits=HEADER_BITS, natural_d=_hsq_natural_d,
                  step=lambda g, p, cb, rng: decode(compress(g, cb, p.s, p.variant, rng), cb)),
    "qsgd": Scheme(payload_bits=_qsgd_bits, natural_d=lambda d_prime, bucket_size: bucket_size,
                   step=lambda g, p, cb, rng: decode_qsgd(
                       compress_qsgd(g, p.s, rng, p.bucket_size))),
    "terngrad": Scheme(payload_bits=lambda d, *_: ternary_bits(d),
                       header_bits=TERNGRAD_SCALER_BITS,
                       step=lambda g, p, cb, rng: decode_terngrad(compress_terngrad(g, rng))),
    "signsgd": Scheme(payload_bits=lambda d, *_: sign_bits(d),
                      step=lambda g, *_: decode_sign(compress_sign(g))),
}


def _scheme(name: str) -> Scheme:
    if name not in SCHEMES:
        raise UnknownScheme(f"unknown scheme {name!r}; expected one of {tuple(SCHEMES)}")
    return SCHEMES[name]


def payload_bits(scheme: str, d: int, d_prime: int | None = None,
                 m: int | None = None, s: int | None = None,
                 bucket_size: int = QSGD_BUCKET_SIZE) -> float:
    """Uplink payload bits for one gradient of length d under a scheme.

    Excludes fixed per-message overhead (frame header, TernGrad's
    scaler) so that the d'-segment cost structure is visible; QSGD's
    per-bucket norms stay in because they grow with d. May be
    fractional: a ternary coordinate costs log2(3) bits.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return _scheme(scheme).payload_bits(d, d_prime, m, s, bucket_size)


def scheme_header_bits(scheme: str) -> int:
    """Fixed per-message overhead excluded from payload accounting."""
    return _scheme(scheme).header_bits


def compression_ratio(scheme: str, d: int | None = None,
                      d_prime: int | None = None, m: int | None = None,
                      s: int | None = None, include_header: bool = False,
                      bucket_size: int = QSGD_BUCKET_SIZE) -> float:
    """Raw-f32 bits over compressed bits for one gradient.

    When d is omitted a scheme-natural length is used (one segment for
    hsq, one bucket for qsgd, 1 otherwise), which yields the asymptotic
    per-coordinate ratio since the excluded header is the only
    d-dependent distortion.
    """
    if d is None:
        d = _scheme(scheme).natural_d(d_prime, bucket_size)
    bits = payload_bits(scheme, d, d_prime=d_prime, m=m, s=s, bucket_size=bucket_size)
    if include_header:
        bits += scheme_header_bits(scheme)
    return 32.0 * d / bits

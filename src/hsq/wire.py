"""Binary frame codec for compressed gradients.

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

A code has one rule, quantizers.code_violations, which decode and
aggregate apply too: encode_frame writes exactly the codes it accepts,
and decode_frame returns exactly those; this module adds no code rule
of its own. hsq_payload_bits counts the payload without the HEADER_BITS of
the header; length_violations is the rule for the d header field, and
quantizers.level_violations the one for s. The simulator's table of
uplink compressors does the bit accounting of every scheme.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codebook import _U32_MAX
from .errors import InvalidGradient, Overflow, WireFormatError, out_of_range
from .quantizers import CompressedGradient, code_violations, decode_pseudo_norm

MAGIC = b"HSQG"
VERSION = 1
HEADER = struct.Struct("<4sHBIIIIff")
HEADER_BITS = HEADER.size * 8  # 248

SCHEME_HSQ = 1


def index_bits(m: int) -> int:
    """Bits for a codeword index: ceil(log2 m), i.e. 0 when m = 1."""
    return int(m - 1).bit_length()  # int(): numpy integers pass the rules too


def level_bits(s: int) -> int:
    """Bits for a grid level: ceil(log2 (s+1)); raw-f32 mode (s=0) uses 32."""
    return int(s).bit_length() if s >= 1 else 32


def encode_frame(cg: CompressedGradient) -> bytes:
    """Serialize a compressed gradient; exact inverse of decode_frame.

    Refuses a code that code_violations refuses: by its first violation, an
    empty gradient with InvalidGradient, a header field beyond its u32 with
    Overflow, the rest with WireFormatError.
    """
    if not isinstance(cg, CompressedGradient):
        raise WireFormatError(f"cannot encode a {type(cg).__name__}, only a CompressedGradient")
    if bad := code_violations(cg):
        empty, overflow = bad[0].startswith("total_dim: must be >= "), f"<= {_U32_MAX}," in bad[0]
        raise (InvalidGradient if empty else Overflow if overflow else WireFormatError)(
            "; ".join(bad))
    s = cg.levels
    lb = level_bits(s)
    low = (np.asarray(cg.grid) if s >= 1 else
           np.asarray(cg.norms, dtype=np.float64).astype(np.float32).view(np.uint32))
    # one 64-bit word per record, the index above the lb level (or raw) bits; the record
    # is the word's low bits, MSB first
    record = index_bits(cg.codeword_count) + lb
    words = (np.asarray(cg.indices).astype(np.uint64) << lb) | low.astype(np.uint64)
    nb = -(-record // 8)  # the low bytes that hold the record
    bits = np.unpackbits(words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nb:], axis=1)
    bits = bits[:, 8 * nb - record:]
    header = HEADER.pack(MAGIC, VERSION, SCHEME_HSQ, cg.total_dim, cg.segment_dim,
                         cg.codeword_count, s, cg.u_min, cg.u_max)
    return header + np.packbits(bits).tobytes()


def decode_frame(buf: bytes) -> CompressedGradient:
    """Parse a frame back into a CompressedGradient that code_violations passes,
    else WireFormatError; so encode_frame maps the code it returns back to buf.

    In grid mode (s >= 1) the norms are the grid values u_min + level*(u_max-u_min)/s.
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
    if d_prime < 1:  # the segment count divides by it
        raise WireFormatError(f"segment_dim: must be >= 1, got {d_prime}")

    n_seg = -(-d // d_prime)
    ib = index_bits(m)
    record = ib + level_bits(s)
    expect = (n_seg * record + 7) // 8
    if len(buf) - HEADER.size != expect:
        raise WireFormatError(
            f"payload is {len(buf) - HEADER.size} bytes, expected {expect}")
    if buf[-1] & ((1 << (8 * expect - n_seg * record)) - 1):
        raise WireFormatError("padding bits of the last byte must be zero")

    # each record as one word: the big-endian 64 bits from the record's first byte, shifted
    # up to its first bit, with the next byte's high bits below them (a record of up to 64
    # bits can span 9 bytes; the payload gets 8 zero bytes past its end), cut to the record
    payload = np.frombuffer(buf[HEADER.size:] + bytes(8), dtype=np.uint8)
    at = np.arange(0, n_seg * record, record)  # each record's first bit
    first, shift = at >> 3, (at & 7).astype(np.uint64)
    words = sliding_window_view(payload, 8).view(">u8")[:, 0].take(first).astype(np.uint64)
    below = payload.take(first + 8).astype(np.uint64) >> (8 - shift)
    words = ((words << shift) | below) >> (64 - record)
    lb = record - ib
    indices = (words >> lb).astype(np.int64)
    low = words & ((1 << lb) - 1)
    if s >= 1:
        grid = low.astype(np.int64)
        with np.errstate(invalid="ignore"):  # 0 * inf from bounds the rule refuses
            norms = decode_pseudo_norm(grid, u_min, u_max, s)
    else:
        raw = low.astype(np.uint32).view(np.float32)
        if not np.all(np.isfinite(raw)):  # before the cast, which warns on a signalling NaN
            raise WireFormatError("raw pseudo-norms must be finite")
        grid, norms = None, raw.astype(np.float64)
    cg = CompressedGradient(total_dim=d, segment_dim=d_prime, codeword_count=m,
                            levels=s, u_min=float(u_min), u_max=float(u_max),
                            indices=indices, norms=norms, grid=grid)
    if bad := code_violations(cg):
        raise WireFormatError("; ".join(bad))
    return cg


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

    idx = (stream.derive("idx").uniforms(n_seg) * m).astype(np.int64) % m
    if s >= 1:
        draws = stream.derive("lvl", np.arange(n_seg)).uniforms(1)[:, 0]
        grid = (draws * (s + 1)).astype(np.int64) % (s + 1)
        norms = decode_pseudo_norm(grid, u_min, u_max, s)
    else:
        grid = None
        raw = stream.derive("raw", np.arange(n_seg)).normals(1)[:, 0] * 10
        norms = raw.astype(np.float32).astype(np.float64)
    return CompressedGradient(total_dim=d, segment_dim=d_prime, codeword_count=m,
                              levels=s, u_min=u_min, u_max=u_max,
                              indices=idx, norms=norms, grid=grid)


def hsq_payload_bits(d: int, d_prime: int, m: int, s: int) -> int:
    """ceil(d/d') records of index + level (or raw f32) bits, unpadded."""
    return -(-d // d_prime) * (index_bits(m) + level_bits(s))


def length_violations(d: int) -> list[str]:
    """The rule for a gradient length: 1 <= d, within the u32 a frame header carries it in."""
    return out_of_range("d", d, 1, _U32_MAX)

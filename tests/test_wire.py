import math
import struct

import numpy as np
import pytest

from hsq.codebook import CodebookMethod, generate
from hsq.errors import ConfigError, InvalidGradient, Overflow, WireFormatError
from hsq.fedsim import SCHEMES, QuantizerScheme, compression_ratio, payload_bits
from hsq.quantizers import CompressedGradient, Variant, compress, decode
from hsq.rng import Stream
from hsq.wire import (HEADER, HEADER_BITS, MAGIC, SCHEME_HSQ, VERSION,
                      decode_frame, encode_frame, hsq_payload_bits, index_bits, level_bits,
                      random_frame)


def _frame(d=8, d_prime=8, m=256, s=63, u_min=0.0, u_max=1.0, indices=(5,), grid=(9,),
           norms=None):
    """A hand-built frame; the norms default to the grid values."""
    if norms is None:
        delta = (u_max - u_min) / s if s >= 1 else 0.0
        norms = [u_min + level * delta for level in grid]
    return CompressedGradient(total_dim=d, segment_dim=d_prime, codeword_count=m,
                              levels=s, u_min=u_min, u_max=u_max, indices=np.array(indices),
                              norms=np.array(norms), grid=None if grid is None else np.array(grid))


# ---------------------------------------------------------------------------
# bit widths


def test_index_bits():
    assert index_bits(1) == 0
    assert index_bits(2) == 1
    assert index_bits(256) == 8
    assert index_bits(257) == 9


def test_level_bits():
    assert level_bits(0) == 32  # raw f32 norm
    assert level_bits(1) == 1
    assert level_bits(63) == 6
    assert level_bits(64) == 7


def test_payload_size_single_segment():
    # one segment, m=256, s=63: 8 index bits + 6 level bits = 14 -> 2 bytes
    blob = encode_frame(_frame())
    assert hsq_payload_bits(8, 8, 256, 63) == 14
    assert len(blob) == HEADER.size + 2
    assert HEADER.size == 31
    assert HEADER_BITS == 248


def test_payload_size_closed_form():
    stream = Stream(99)
    for i in range(200):
        cg = random_frame(stream.derive(i))
        blob = encode_frame(cg)
        bits = hsq_payload_bits(cg.total_dim, cg.segment_dim,
                                cg.codeword_count, cg.levels)
        assert len(blob) == HEADER.size + (bits + 7) // 8


# ---------------------------------------------------------------------------
# byte-level oracle


def test_header_layout_by_hand():
    blob = encode_frame(_frame())
    expect = struct.pack("<4sHBIIIIff", b"HSQG", 1, SCHEME_HSQ, 8, 8, 256, 63, 0.0, 1.0)
    assert blob[:31] == expect
    assert blob[:4] == MAGIC


def test_payload_bits_msb_first_by_hand():
    # index 5 in 8 bits, then level 9 in 6 bits (001001), MSB first:
    # 00000101 001001xx -> bytes 0x05, 0x24
    blob = encode_frame(_frame())
    assert blob[31:] == bytes([0x05, 0b00100100])


def test_payload_two_segments_by_hand():
    # m=4 (2 index bits), s=1 (1 level bit): records 10|1 and 01|0
    # packed MSB-first: 10101 000 -> 0xA8
    blob = encode_frame(_frame(d=6, d_prime=3, m=4, s=1, indices=(2, 1), grid=(1, 0)))
    assert blob[31:] == bytes([0b10101000])


def test_raw_norm_mode_is_big_endian_ieee():
    blob = encode_frame(_frame(d=4, d_prime=4, m=1, s=0, u_min=-1.5, u_max=-1.5,
                               indices=(0,), grid=None, norms=(-1.5,)))
    # m=1 -> zero index bits, so the payload is exactly the f32 of -1.5
    assert blob[31:] == struct.pack(">f", -1.5)


@pytest.mark.parametrize("m", [1, 2, 3, 256, 2 ** 25 + 1, 2 ** 26 + 1, 2 ** 32 - 1])
@pytest.mark.parametrize("s", [0, 1, 63, 2 ** 32 - 1])
def test_payload_matches_big_int_reference(m, s):
    # 9 segments start at every bit offset within a byte for an odd record; records of
    # 58 to 64 bits (m above 2^25 at s = 0) span 9 bytes at some offsets
    st = Stream(31).derive("records", m, s)
    n = 9
    indices = (st.derive("i").uniforms(n) * m).astype(np.int64) % m
    indices[:2] = 0, m - 1
    if s:
        grid = (st.derive("l").uniforms(n) * (s + 1)).astype(np.int64) % (s + 1)
        grid[:2] = s, 0
        cg = _frame(d=3 * n - 1, d_prime=3, m=m, s=s, u_min=-1.0, u_max=2.0,
                    indices=indices, grid=grid)
        low = grid.tolist()
    else:
        norms = np.float32(st.derive("u").normals(n)).astype(np.float64)
        cg = _frame(d=3 * n - 1, d_prime=3, m=m, s=0, u_min=float(norms.min()),
                    u_max=float(norms.max()), indices=indices, grid=None, norms=norms)
        low = [int.from_bytes(struct.pack(">f", u), "big") for u in norms]
    ib, lb = index_bits(m), level_bits(s)
    want = 0
    for i, w in zip(indices.tolist(), low):
        want = (want << (ib + lb)) | (i << lb) | w
    nbits = n * (ib + lb)
    want <<= -nbits % 8
    blob = encode_frame(cg)
    assert blob[31:] == want.to_bytes((nbits + 7) // 8, "big")
    back = decode_frame(blob)
    assert back == cg


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_random_frames():
    stream = Stream(7)
    for i in range(500):
        cg = random_frame(stream.derive(i))
        blob = encode_frame(cg)
        back = decode_frame(blob)
        assert back == cg
        assert encode_frame(back) == blob


def test_roundtrip_compressor_output():
    # frames produced by the compressor itself decode bit-identically
    stream = Stream(11)
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 32, seed=3)
    for i, s in enumerate((0, 1, 63)):
        g = stream.derive("g", i).normals(24)
        for variant in (Variant.UNBIASED, Variant.GREEDY):
            cg = compress(g, cb, s=s, variant=variant, rng=stream.derive("q", i, variant.value))
            blob = encode_frame(cg)
            back = decode_frame(blob)
            assert back == cg  # field for field, the norms being what the receiver decodes
            assert encode_frame(back) == blob
            np.testing.assert_array_equal(decode(back, cb), decode(cg, cb))


def test_grid_mode_reconstructs_grid_value():
    back = decode_frame(encode_frame(_frame()))
    assert back.grid[0] == 9
    assert back.norms[0] == pytest.approx(9 / 63)


# ---------------------------------------------------------------------------
# validation and corruption


def test_encode_rejects_empty_gradient():
    with pytest.raises(InvalidGradient):
        encode_frame(_frame(d=0))


def test_encode_rejects_u32_overflow():
    with pytest.raises(Overflow):
        encode_frame(_frame(m=2 ** 32))
    with pytest.raises(Overflow):
        encode_frame(_frame(s=2 ** 32))


def test_encode_rejects_negative_levels():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(s=-1, grid=None, norms=(0.5,)))


def test_encode_rejects_wrong_segment_count():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(d=16))  # would need 2 segments
    for bad in (dict(indices=(5, 5)), dict(grid=(9, 9)), dict(norms=(0.5, 0.5)),
                dict(indices=[[5]]), dict(grid=[[9]], norms=(0.5,)), dict(norms=[[0.5]]),
                dict(indices=()), dict(s=0, grid=None, norms=())):
        with pytest.raises(WireFormatError):
            encode_frame(_frame(**bad))


def test_encode_rejects_non_integer_codes():
    for bad in (dict(indices=(5.0,)), dict(grid=(9.0,)), dict(indices=(True,)),
                dict(grid=("9",), norms=(0.5,)), dict(norms=("0.5",)),
                dict(s=0, grid=None, norms=(1,))):
        with pytest.raises(WireFormatError):
            encode_frame(_frame(**bad))


def test_encode_rejects_non_integer_header_fields():
    # struct packs only ints; a float d, d', m or s is refused by the integer rule
    for field, bad in (("total_dim", dict(d=8.0)), ("segment_dim", dict(d_prime=8.0)),
                       ("codeword_count", dict(m=256.0)), ("levels", dict(s=63.0)),
                       ("levels", dict(s=1.5)), ("total_dim", dict(d=True))):
        with pytest.raises(WireFormatError, match=f"{field}: must be an int"):
            encode_frame(_frame(**bad))


def test_encode_rejects_inverted_bounds():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(u_min=1.0, u_max=0.0))


def test_encode_rejects_non_f32_bounds():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(u_min=0.1, u_max=1.0))  # 0.1 is not f32-exact
    # not real numbers: refused by the rule before any conversion to float
    for bad in ("a", 1 + 0j):
        for bounds in ({"u_min": bad}, {"u_max": bad}):
            with pytest.raises(WireFormatError, match="u_min, u_max: "):
                encode_frame(_frame(s=0, grid=None, norms=(0.5,), **bounds))


def test_encode_rejects_non_f32_raw_norm():
    for bad in (0.1, math.nan, math.inf, 1e300):
        with pytest.raises(WireFormatError):
            encode_frame(_frame(s=0, grid=None, norms=(bad,)))


def test_encode_rejects_out_of_range_index():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(d=2, d_prime=2, m=4, s=1, indices=(4,), grid=(0,)))
    with pytest.raises(WireFormatError):
        encode_frame(_frame(d=2, d_prime=2, m=4, s=1, indices=(-1,), grid=(0,)))


def test_encode_rejects_out_of_range_level():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(d=8, m=4, s=63, indices=(0,), grid=(64,), norms=(1.0,)))
    with pytest.raises(WireFormatError):
        encode_frame(_frame(d=8, m=4, s=63, indices=(0,), grid=(-1,), norms=(1.0,)))


def test_encode_rejects_grid_norms_that_differ_from_their_grid_values():
    # 9/63 on [0, 1] is one grid value; the exact pre-rounding u or -0.0 for 0.0 are not
    encode_frame(_frame(d=16, indices=(5, 6), grid=(9, 0)))
    for norms in ((0.14, 0.0), (9 / 63, -0.0), (np.float32(9 / 63), 0.0)):
        with pytest.raises(WireFormatError, match="grid values"):
            encode_frame(_frame(d=16, indices=(5, 6), grid=(9, 0), norms=norms))


def test_encode_rejects_level_in_raw_mode():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(s=0, indices=(0,), grid=(0,), norms=(1.0,)))


def test_encode_rejects_missing_levels_in_grid_mode():
    with pytest.raises(WireFormatError):
        encode_frame(_frame(s=63, indices=(0,), grid=None, norms=(0.5,)))


def test_decode_rejects_short_buffer():
    with pytest.raises(WireFormatError):
        decode_frame(b"HSQG")


def test_decode_rejects_bad_magic():
    blob = bytearray(encode_frame(_frame()))
    blob[0] = ord("X")
    with pytest.raises(WireFormatError):
        decode_frame(bytes(blob))


def test_decode_rejects_bad_version():
    blob = bytearray(encode_frame(_frame()))
    blob[4] = 99
    with pytest.raises(WireFormatError):
        decode_frame(bytes(blob))


def test_decode_rejects_bad_scheme_code():
    blob = bytearray(encode_frame(_frame()))
    blob[6] = 0
    with pytest.raises(WireFormatError):
        decode_frame(bytes(blob))


def test_decode_rejects_truncated_payload():
    blob = encode_frame(_frame())
    with pytest.raises(WireFormatError):
        decode_frame(blob[:-1])
    with pytest.raises(WireFormatError):
        decode_frame(blob + b"\x00")


def test_decode_rejects_out_of_range_index():
    # m=3 leaves index value 3 unused in 2 bits; force it into the payload
    blob = bytearray(encode_frame(_frame(d=2, d_prime=2, m=3, s=1, indices=(0,), grid=(0,))))
    blob[31] = 0b11000000
    with pytest.raises(WireFormatError):
        decode_frame(bytes(blob))


def test_decode_rejects_out_of_range_level():
    # s=2 uses 2 level bits; level 3 is invalid
    blob = bytearray(encode_frame(_frame(d=2, d_prime=2, m=1, s=2, indices=(0,), grid=(0,))))
    blob[31] = 0b11000000
    with pytest.raises(WireFormatError):
        decode_frame(bytes(blob))


def test_decode_rejects_non_finite_bounds():
    # encode_frame refuses non-finite u_min/u_max, so decode must too
    for offset in (23, 27):
        for bad in (math.nan, math.inf, -math.inf):
            blob = bytearray(encode_frame(_frame()))
            blob[offset:offset + 4] = struct.pack("<f", bad)
            with pytest.raises(WireFormatError):
                decode_frame(bytes(blob))


def test_decode_rejects_non_finite_raw_norm():
    # the last two are signalling NaNs, which a cast to f64 warns about
    for bad in (*(struct.pack(">f", v) for v in (math.nan, math.inf, -math.inf)),
                bytes.fromhex("7f800001"), bytes.fromhex("ffbfffff")):
        blob = bytearray(encode_frame(_frame(s=0, indices=(5,), grid=None, norms=(0.5,))))
        blob[HEADER.size + 1:HEADER.size + 5] = bad  # after 8 index bits
        with pytest.raises(WireFormatError):
            decode_frame(bytes(blob))


def test_decode_rejects_set_padding_bit():
    # 14 payload bits leave the low 2 bits of the second byte as padding
    for bit in (0, 1):
        blob = bytearray(encode_frame(_frame()))
        blob[-1] |= 1 << bit
        with pytest.raises(WireFormatError):
            decode_frame(bytes(blob))


@pytest.mark.parametrize("s", [0, 63])
def test_decode_header_fields_at_their_limits_roundtrip_or_raise(s):
    # d, d', m or s set to 0, 1 or 2**32 - 1, one at a time, in a one-segment frame
    cg = _frame(s=s, grid=None, norms=(0.5,)) if s == 0 else _frame(s=s)
    blob = encode_frame(cg)
    accepted = set()
    for name, offset in (("d", 7), ("d'", 11), ("m", 15), ("s", 19)):
        for value in (0, 1, 2 ** 32 - 1):
            mutant = bytearray(blob)
            struct.pack_into("<I", mutant, offset, value)
            try:
                back = decode_frame(bytes(mutant))
            except WireFormatError:
                continue
            assert encode_frame(back) == mutant
            accepted.add((name, value))
    # one segment still parses at d = 1 or d' = 2**32 - 1; a raw f32 norm has the
    # 32 bits of a level of s = 2**32 - 1, so it parses as that level too
    raw = {("s", 0), ("s", 2 ** 32 - 1)} if s == 0 else set()
    assert accepted == {("d", 1), ("d'", 2 ** 32 - 1)} | raw


def _flip(blob: bytes, pos: int) -> bytes:
    out = bytearray(blob)
    out[pos // 8] ^= 0x80 >> (pos % 8)  # MSB-first, like the payload
    return bytes(out)


def _mutants(blob: bytes, cg: CompressedGradient, st: Stream):
    """Bit flips (every padding bit included), truncations, extensions and
    non-finite patches of the f32 header fields and raw pseudo-norms."""
    nbits = 8 * len(blob)
    record = index_bits(cg.codeword_count) + level_bits(cg.levels)
    used = 8 * HEADER.size + len(cg.indices) * record
    for u in st.derive("flip").uniforms(8):
        yield _flip(blob, int(u * nbits))
    for pos in range(used, nbits):
        yield _flip(blob, pos)
    for u in st.derive("cut").uniforms(3):
        yield blob[:int(u * len(blob))]
    yield blob + bytes([int(st.derive("ext").uniforms(1)[0] * 256)])
    yield blob + bytes(4)
    j = int(st.derive("seg").uniforms(1)[0] * len(cg.indices))
    shift = nbits - (8 * HEADER.size + j * record + index_bits(cg.codeword_count)) - 32
    for bad in (math.nan, math.inf, -math.inf):
        for offset in (23, 27):  # u_min, u_max
            yield blob[:offset] + struct.pack("<f", bad) + blob[offset + 4:]
        if cg.levels == 0:  # overwrite segment j's raw f32 pseudo-norm
            (raw,) = struct.unpack(">I", struct.pack(">f", bad))
            n = int.from_bytes(blob, "big") & ~(0xFFFFFFFF << shift) | (raw << shift)
            yield n.to_bytes(len(blob), "big")


def test_decode_mutants_roundtrip_or_raise_wire_format_error():
    # every byte string decode_frame accepts must re-encode to itself
    stream = Stream(2024)
    frames = [random_frame(stream.derive("random", i)) for i in range(30)]
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 32, seed=3)
    for i, (s, variant) in enumerate([(0, Variant.UNBIASED), (7, Variant.GREEDY),
                                      (63, Variant.UNBIASED), (0, Variant.GREEDY)]):
        g = stream.derive("g", i).normals(21)
        frames.append(compress(g, cb, s, variant, stream.derive("q", i)))
    accepted = rejected = 0
    for i, cg in enumerate(frames):
        blob = encode_frame(cg)
        for mutant in _mutants(blob, cg, stream.derive("mutate", i)):
            try:
                back = decode_frame(mutant)
            except WireFormatError:
                rejected += 1
                continue
            assert encode_frame(back) == mutant
            accepted += 1
    assert accepted > 50 and rejected > 200


# ---------------------------------------------------------------------------
# accounting


def test_payload_bits_per_scheme():
    assert payload_bits(QuantizerScheme("identity"), 100) == 3200.0
    assert payload_bits(QuantizerScheme("hsq", d_prime=8, m=64, s=0), 64) == 8 * (6 + 32)
    assert payload_bits(QuantizerScheme("hsq", d_prime=16, m=256, s=63), 64) == 4 * 14
    assert payload_bits(QuantizerScheme("signsgd"), 77) == 77.0
    assert payload_bits(QuantizerScheme("terngrad"), 100) == pytest.approx(100 * math.log2(3))
    assert payload_bits(QuantizerScheme("qsgd", s=7), 512) == pytest.approx(512 * 4 + 32)


@pytest.mark.parametrize("scheme, params, bad", [
    ("hsq", dict(d_prime=8, m=4, s=1), "m"),
    ("hsq", dict(d_prime=4, m=4, s=-1), "s"),
    ("hsq", dict(d_prime=0, m=4, s=1), "d_prime"),
    ("hsq", dict(d_prime=4, m=4), "s"),
    ("qsgd", dict(s=0), "s"),
    ("qsgd", dict(s=7, bucket_size=0), "bucket_size"),
])
def test_payload_bits_rejects_invalid_parameters(scheme, params, bad):
    for call in (lambda p: payload_bits(p, 64), compression_ratio):
        with pytest.raises(ConfigError) as exc:
            call(QuantizerScheme(scheme, **params))
        assert exc.value.violations[0].startswith(f"{bad}: must be >= ")


def test_payload_bits_rejects_unknown_scheme():
    with pytest.raises(ConfigError) as exc:
        payload_bits(QuantizerScheme("zipgrad"), 10)
    assert [v.split(":")[0] for v in exc.value.violations] == ["name"]


def test_scheme_header_bits():
    assert SCHEMES["hsq"].header_bits == HEADER_BITS
    assert SCHEMES["terngrad"].header_bits == 32
    assert SCHEMES["identity"].header_bits == 0
    assert SCHEMES["signsgd"].header_bits == 0
    assert "nope" not in SCHEMES


def test_compression_ratio_reference_values():
    # per-coordinate asymptotic ratios at m=256, s=63
    assert f"{compression_ratio(QuantizerScheme('hsq', 8, 256, 63)):.1f}" == "18.3"
    assert f"{compression_ratio(QuantizerScheme('hsq', 16, 256, 63)):.1f}" == "36.6"
    assert f"{compression_ratio(QuantizerScheme('hsq', 64, 256, 63)):.1f}" == "146.3"
    assert f"{compression_ratio(QuantizerScheme('terngrad')):.1f}" == "20.2"
    assert f"{compression_ratio(QuantizerScheme('signsgd')):.1f}" == "32.0"
    assert compression_ratio(QuantizerScheme("identity")) == 1.0


def test_compression_ratio_header_overhead_shrinks_with_d():
    hsq16 = QuantizerScheme("hsq", d_prime=16, m=256, s=63)
    small = compression_ratio(hsq16, d=64, include_header=True)
    large = compression_ratio(hsq16, d=2 ** 20, include_header=True)
    bare = compression_ratio(hsq16)
    assert small < large < bare
    assert large == pytest.approx(bare, rel=1e-3)

import math

import numpy as np
import pytest

from conftest import traced_peak
from hsq.baselines import (QSGD_BUCKET_SIZE, compress_qsgd, compress_sign,
                           compress_terngrad, decode_qsgd, decode_sign,
                           decode_terngrad, qsgd_dense_bits, sign_bits)
from hsq.codebook import CodebookMethod, generate
from hsq.errors import InvalidGradient, Overflow
from hsq.quantizers import Variant, compress
from hsq.rng import Stream
from hsq.fedsim import SCHEMES, QuantizerScheme, payload_bits


# ---------------------------------------------------------------------------
# QSGD


def test_qsgd_roundtrip_shape_and_levels():
    g = Stream(1).normals(1000)
    code = compress_qsgd(g, levels=7, rng=Stream(2))
    assert code.level_idx.shape == (1000,)
    assert code.norms.shape == (2,)  # ceil(1000/512) buckets
    assert np.all((code.level_idx >= 0) & (code.level_idx <= 7))
    assert decode_qsgd(code).shape == (1000,)


def test_qsgd_single_nonzero_coordinate():
    g = np.zeros(16)
    g[5] = 3.0
    # |g_5|/norm = 1 -> level s surely; everything else level 0
    code = compress_qsgd(g, levels=4, rng=Stream(3), bucket_size=16)
    decoded = decode_qsgd(code)
    np.testing.assert_allclose(decoded, g, atol=1e-12)


def test_qsgd_zero_bucket():
    code = compress_qsgd(np.zeros(600), levels=3, rng=Stream(4))
    assert np.all(code.level_idx == 0)
    np.testing.assert_array_equal(decode_qsgd(code), np.zeros(600))


def _reference_compress_qsgd(g, levels, rng, bucket_size):
    """Per-bucket QSGD: one np.linalg.norm and one rounding per bucket."""
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
    return norms, level_idx, np.where(g >= 0, 1, -1).astype(np.int8)


@pytest.mark.parametrize("levels", [1, 15])
@pytest.mark.parametrize("d,bucket", [(1, 1), (37, 1), (1000, 7), (5508, 512), (1031, 512),
                                      (300, 512), (512, 512)])
def test_qsgd_matches_per_bucket_reference(d, bucket, levels):
    st = Stream(11).derive(d, bucket)
    for k, scale in enumerate((1e-3, 1.0, 7e2)):
        g = scale * st.derive("g", k).normals(d)
        if k == 1:  # zero whole buckets, the first and one in the middle
            g[:bucket] = 0.0
            g[(d // bucket // 2) * bucket:(d // bucket // 2 + 1) * bucket] = 0.0
        code = compress_qsgd(g, levels, st.derive("q", k), bucket)
        norms, level_idx, signs = _reference_compress_qsgd(g, levels, st.derive("q", k),
                                                           bucket)
        assert code.norms.tobytes() == norms.tobytes()
        assert code.level_idx.tobytes() == level_idx.tobytes()
        assert code.signs.tobytes() == signs.tobytes()


def test_qsgd_unbiased_monte_carlo():
    g = Stream(5).normals(64)
    draws = np.stack([decode_qsgd(compress_qsgd(g, 3, Stream(6).derive(i), 64))
                      for i in range(20_000)])
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - g) <= 4 * se + 1e-12)


def test_qsgd_sparsity_bound_s1():
    # with one level the expected nonzero count per bucket is at most
    # ||g||_1/||g||_2 <= sqrt(bucket)
    bucket = 256
    g = Stream(7).normals(bucket)
    analytic = np.abs(g).sum() / np.linalg.norm(g)
    counts = [np.count_nonzero(compress_qsgd(g, 1, Stream(8).derive(i), bucket).level_idx)
              for i in range(4000)]
    mean_nnz = float(np.mean(counts))
    se = float(np.std(counts)) / math.sqrt(len(counts))
    assert mean_nnz <= analytic + 4 * se
    assert analytic <= math.sqrt(bucket)


def test_qsgd_bit_accounting():
    # dense: (level bits + sign) per coord plus a 32-bit norm per bucket
    assert qsgd_dense_bits(512, 7) == 512 * 4 + 32
    assert qsgd_dense_bits(1024, 127) == 1024 * 8 + 64
    assert qsgd_dense_bits(10, 1, bucket_size=4) == 10 * 2 + 32 * 3


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


def test_qsgd_sparse_bits_sqrtd_logd_scaling():
    # the s=1 sparse cost should grow like sqrt(d) * log d: the ratio to
    # that envelope stays within a fixed band while d spans 4 decades
    ds = [2 ** k for k in range(8, 22, 2)]
    ratios = [qsgd_sparse_bits(d, 1) / (math.sqrt(d) * math.log2(d)) for d in ds]
    assert max(ratios) / min(ratios) < 2.0
    # and it is asymptotically far below the dense 32d cost
    assert qsgd_sparse_bits(2 ** 20, 1) < 32 * 2 ** 20 / 1000


def test_qsgd_rejects_bad_params():
    with pytest.raises(ValueError, match="^levels: must be >= 1, got 0$"):
        compress_qsgd(np.ones(4), 0, Stream(0))
    with pytest.raises(ValueError, match="^bucket_size: must be >= 1, got 0$"):
        compress_qsgd(np.ones(4), 1, Stream(0), bucket_size=0)
    with pytest.raises(InvalidGradient):
        compress_qsgd(np.array([np.nan]), 1, Stream(0))


def test_qsgd_refuses_a_bucket_whose_squared_norm_overflows():
    # finite input whose bucket norm overflows used to warn and decode to all NaN;
    # it raises Overflow, as hsq's compress does past the f32 range
    tail = np.ones(QSGD_BUCKET_SIZE + 3)
    tail[-1] = 1e200
    for g in (np.full(1000, 1e200), tail, np.array([-1.4e154, 1.4e154])):
        with pytest.raises(Overflow):
            compress_qsgd(g, 15, Stream(0))
    # just below the limit every bucket still encodes and decodes finitely
    g = np.full(QSGD_BUCKET_SIZE, 1e150)
    assert np.all(np.isfinite(decode_qsgd(compress_qsgd(g, 15, Stream(0)))))


def test_qsgd_parameters_stay_within_a_u32():
    # as hsq's s: beyond it the level index overflowed int64 and the bucket count numpy
    for kwargs, name in ((dict(levels=2 ** 32), "levels"), (dict(bucket_size=2 ** 64), "bucket_size")):
        with pytest.raises(ValueError, match=f"^{name}: must be <= 4294967295, got "):
            compress_qsgd(np.ones(4), **{"levels": 1, "rng": Stream(0), **kwargs})
    assert [v.split(":")[0] for v in QuantizerScheme("qsgd", s=2 ** 32,
                                                     bucket_size=2 ** 32).violations()] == [
        "s", "bucket_size"]
    assert QuantizerScheme("qsgd", s=2 ** 32 - 1, bucket_size=2 ** 32 - 1).violations() == []


def test_qsgd_memory_stays_linear_in_d_for_any_bucket_size():
    # a bucket longer than the gradient is one tail bucket, the code d + 1 gives; the
    # norms once stood for ceil(d / bucket) x bucket_size values (8 MiB at 2^20)
    d = 5508
    g = Stream(12).normals(d)
    want = compress_qsgd(g, 15, Stream(13), d + 1)
    for bucket_size in (2 ** 20, 2 ** 31):
        out = []
        peak = traced_peak(lambda: out.append(compress_qsgd(g, 15, Stream(13), bucket_size)))
        assert peak < 2 ** 20, (bucket_size, peak)
        code, = out
        for name in ("norms", "level_idx", "signs"):
            assert getattr(code, name).tobytes() == getattr(want, name).tobytes(), name
        assert traced_peak(decode_qsgd, code) < 2 ** 20
        assert decode_qsgd(code).tobytes() == decode_qsgd(want).tobytes()


# ---------------------------------------------------------------------------
# TernGrad


def test_terngrad_zero_gradient():
    code = compress_terngrad(np.zeros(8), Stream(1))
    assert code.scaler == 0.0
    np.testing.assert_array_equal(decode_terngrad(code), np.zeros(8))


def test_terngrad_saturated_coordinates():
    # coordinates at +-max|g| are kept with probability 1, signs preserved
    g = np.array([2.0, -2.0])
    code = compress_terngrad(g, Stream(2))
    np.testing.assert_array_equal(code.ternary, [1, -1])
    np.testing.assert_array_equal(decode_terngrad(code), g)


def test_terngrad_values_ternary():
    g = Stream(3).normals(100)
    code = compress_terngrad(g, Stream(4))
    assert set(np.unique(code.ternary)).issubset({-1, 0, 1})


def test_terngrad_unbiased_monte_carlo():
    g = Stream(5).normals(32)
    draws = np.stack([decode_terngrad(compress_terngrad(g, Stream(6).derive(i)))
                      for i in range(20_000)])
    se = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - g) <= 4 * se + 1e-12)


def test_terngrad_bits():
    bits = payload_bits(QuantizerScheme("terngrad"), 100) + SCHEMES["terngrad"].header_bits
    assert bits == pytest.approx(100 * math.log2(3) + 32)


# ---------------------------------------------------------------------------
# sign quantization


def test_sign_basic():
    code = compress_sign(np.array([2.0, -3.0]))
    np.testing.assert_array_equal(code.signs, [1, -1])
    np.testing.assert_array_equal(decode_sign(code), [1.0, -1.0])


def test_sign_zero_is_positive():
    code = compress_sign(np.array([0.0, -0.0, 1.0]))
    np.testing.assert_array_equal(code.signs, [1, 1, 1])


def test_sign_bits_matches_dimension():
    assert sign_bits(12345) == 12345.0


def test_sign_rejects_nan():
    with pytest.raises(InvalidGradient):
        compress_sign(np.array([np.nan]))


@pytest.mark.parametrize("g", [np.array([]), np.ones((2, 2)), np.array([1.0, np.nan]),
                               np.array([np.inf, 1.0]), np.array([[1.0]])])
@pytest.mark.parametrize("compressor", [
    lambda g: compress_qsgd(g, 1, Stream(0)),
    lambda g: compress_terngrad(g, Stream(0)),
    compress_sign,
    lambda g: compress(g, generate(CodebookMethod.SOB, 2, 2, seed=0), 0, Variant.GREEDY, Stream(0)),
], ids=["qsgd", "terngrad", "sign", "hsq"])
def test_every_compressor_refuses_the_same_gradients(compressor, g):
    # one gradient check: 1-D, non-empty and finite
    with pytest.raises(InvalidGradient):
        compressor(g)

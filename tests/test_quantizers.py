import math

import numpy as np
import pytest

from conftest import openblas_core, run_tests_on_kernel, traced_peak
from hsq.codebook import Codebook, CodebookMethod, generate
from hsq.errors import (DimensionMismatch, EmptyInput, InvalidGradient, Overflow,
                        WireFormatError)
from hsq.metrics import check_variance_bound
from hsq.quantizers import (CompressedGradient, Variant, _compress_rows, _select, aggregate,
                            compress, decode, decode_pseudo_norm, round_in_cell, rounding_cell,
                            sample_unbiased_codes, segment_gradient)
from hsq.rng import Stream
from hsq.wire import encode_frame


def sob(dim):
    return generate(CodebookMethod.SOB, dim, dim, seed=0)


def unbiased_draws(g, cb, draws):
    """The unbiased selection rule on one segment, one pick per given uniform."""
    idx, u = _select(np.asarray(g, dtype=np.float64)[None], cb, np.array([draws]))
    return idx[0].tolist(), u[0].tolist()


def greedy(g, cb):
    """The greedy selection rule on one segment: (u, codeword index)."""
    idx, u = _select(np.asarray(g, dtype=np.float64)[None], cb)
    return float(u[0, 0]), int(idx[0, 0])


# ---------------------------------------------------------------------------
# probabilistic selection


def test_unbiased_zero_gradient():
    assert unbiased_draws(np.zeros(4), sob(4), [0.0, 0.5, 0.99]) == ([0, 0, 0], [0.0, 0.0, 0.0])


def test_unbiased_enumerated_positive():
    # g=(3,4): p=(3,4), l1=7; uniform < 3/7 picks index 0, else index 1;
    # u is +7 in both branches
    cb = sob(2)
    g = np.array([3.0, 4.0])
    (i0, i1), (u0, u1) = unbiased_draws(g, cb, [3 / 7 - 1e-9, 3 / 7 + 1e-9])
    assert (i0, i1) == (0, 1)
    assert u0 == pytest.approx(7.0) and u1 == pytest.approx(7.0)
    # expectation over the two enumerated outcomes reproduces g
    mean = (3 / 7) * u0 * cb.columns[:, 0] + (4 / 7) * u1 * cb.columns[:, 1]
    np.testing.assert_allclose(mean, g, atol=1e-12)


def test_unbiased_enumerated_sign():
    # g=(-3,4): drawing index 0 must flip u to -7
    cb = sob(2)
    g = np.array([-3.0, 4.0])
    (i0, i1), (u0, u1) = unbiased_draws(g, cb, [0.1, 0.9])
    assert (i0, u0) == (0, -7.0)
    assert (i1, u1) == (1, 7.0)
    mean = (3 / 7) * u0 * cb.columns[:, 0] + (4 / 7) * u1 * cb.columns[:, 1]
    np.testing.assert_allclose(mean, g, atol=1e-12)


def test_unbiased_rejects_nan_and_shape():
    cb = sob(4)
    with pytest.raises(InvalidGradient):
        sample_unbiased_codes(np.array([1.0, np.nan, 0, 0]), cb, 1, Stream(0))
    with pytest.raises(DimensionMismatch):
        sample_unbiased_codes(np.ones(3), cb, 10, Stream(0))
    with pytest.raises(DimensionMismatch):
        sample_unbiased_codes(np.zeros(3), cb, 10, Stream(0))


def test_unbiased_one_draw_per_segment():
    cb = sob(4)
    for n in (1, 5):
        s = Stream(5)
        sample_unbiased_codes(np.array([1.0, 2, 3, 4]), cb, n, s)
        assert s._counter == n  # exactly one uniform consumed per draw


def test_sample_unbiased_matches_single_draws():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=2)
    g = Stream(3).normals(8)
    idx, u = sample_unbiased_codes(g, cb, 50, Stream(9))
    # draw r is the selection rule on the r-th uniform of the stream
    assert (idx.tolist(), u.tolist()) == unbiased_draws(g, cb, Stream(9).uniforms(50))
    # same distribution support: all indices valid, |u| constant = l1
    l1 = float(np.abs(cb.pinv @ g).sum())
    assert np.all((idx >= 0) & (idx < 16))
    np.testing.assert_allclose(np.abs(u), l1, atol=1e-12)
    for seg in (g, np.zeros(8)):  # no draws: empty arrays
        idx, u = sample_unbiased_codes(seg, cb, 0, Stream(9))
        assert idx.shape == u.shape == (0,) and idx.dtype == np.int64


# ---------------------------------------------------------------------------
# greedy selection


def test_greedy_zero_gradient():
    assert greedy(np.zeros(3), sob(3)) == (0.0, 0)


def test_greedy_enumerated():
    # g=(0.3,-0.9): |corr| = (0.3, 0.9) -> index 1, u = -0.9
    u, idx = greedy(np.array([0.3, -0.9]), sob(2))
    assert idx == 1
    assert u == pytest.approx(-0.9)
    residual = np.array([0.3, -0.9]) - u * sob(2).columns[:, 1]
    assert float(residual @ residual) == pytest.approx(0.09)


def test_greedy_tie_breaks_low_index():
    u, idx = greedy(np.array([0.5, 0.5]), sob(2))
    assert idx == 0 and u == pytest.approx(0.5)


def test_greedy_worst_case_orthonormal():
    # g = (1/2,...,1/2): every correlation is 1/2, bound (1-alpha)||g||^2
    # with alpha = 1 - 1/m is met with equality
    cb = sob(4)
    g = np.full(4, 0.5)
    u, idx = greedy(g, cb)
    assert idx == 0
    assert u ** 2 == pytest.approx(0.25)
    assert u ** 2 == pytest.approx((cb.sigma_min ** 2 / cb.count) * float(g @ g))


def test_greedy_scale_equivariance():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=4)
    g = Stream(6).normals(8)
    u, idx = greedy(g, cb)
    for lam in (0.5, 2.0, 17.0):
        u2, idx2 = greedy(lam * g, cb)
        assert idx2 == idx
        assert u2 == pytest.approx(lam * u, rel=1e-12)


# ---------------------------------------------------------------------------
# pseudo-norm grid rounding


def grid_levels(u, u_min, u_max, s, draws):
    """The grid level that rounding u reaches on each given uniform."""
    _, k, p_lower = rounding_cell(u, u_min, u_max, s)
    return round_in_cell(k, p_lower, np.asarray(draws)).tolist()


def test_pseudo_norm_grid_endpoints():
    draws = Stream(1).uniforms(5).tolist() + [0.0, 1.0 - 2 ** -53]
    assert grid_levels(0.0, 0.0, 1.0, 4, draws) == [0] * 7
    assert grid_levels(1.0, 0.0, 1.0, 4, draws) == [4] * 7


def test_pseudo_norm_enumerated_probabilities():
    # u=0.3 on [0,1] with s=4: delta=.25, k=1, P(level 1)=0.8, P(level 2)=0.2
    delta, k, p_lower = rounding_cell(0.3, 0.0, 1.0, 4)
    assert (delta, k) == (0.25, 1) and p_lower == pytest.approx(0.8)
    assert grid_levels(0.3, 0.0, 1.0, 4, [0.8 - 1e-9, 0.8 + 1e-9]) == [1, 2]
    assert decode_pseudo_norm(1, 0.0, 1.0, 4) == pytest.approx(0.25)
    assert decode_pseudo_norm(2, 0.0, 1.0, 4) == pytest.approx(0.5)
    # expectation over the enumerated branches
    assert 0.8 * 0.25 + 0.2 * 0.5 == pytest.approx(0.3)


def test_pseudo_norm_monte_carlo_unbiased():
    levels = grid_levels(0.3, 0.0, 1.0, 4, Stream(1).uniforms(20_000))
    decoded = decode_pseudo_norm(np.array(levels), 0.0, 1.0, 4)
    se = decoded.std() / np.sqrt(decoded.size)
    assert abs(decoded.mean() - 0.3) < 4 * se


def test_pseudo_norm_degenerate_interval():
    assert rounding_cell(2.0, 2.0, 2.0, 8) == (0.0, 0, 1.0)
    assert grid_levels(2.0, 2.0, 2.0, 8, [0.0, 0.5, 1.0 - 2 ** -53]) == [0] * 3
    assert decode_pseudo_norm(0, 2.0, 2.0, 8) == 2.0


def test_pseudo_norm_requires_positive_s():
    # s = 0 sends exact norms; there is no grid to decode onto
    with pytest.raises(ValueError):
        decode_pseudo_norm(0, 0.0, 1.0, 0)


# ---------------------------------------------------------------------------
# segmentation, compress, decode


def test_segment_gradient_shapes():
    g = np.arange(10.0)
    segs = segment_gradient(g, 8)
    assert segs.shape == (2, 8)
    np.testing.assert_array_equal(segs[1], [8, 9, 0, 0, 0, 0, 0, 0])


def test_compress_single_segment_greedy_exact():
    cb = generate(CodebookMethod.RANDOM_ROTATION, 8, 8, seed=1)
    g = Stream(2).normals(8)
    cg = compress(g, cb, 0, Variant.GREEDY, Stream(0))
    corr = cb.columns.T @ g
    best = int(np.argmax(np.abs(corr)))
    expected = np.float32(corr[best]) * cb.columns[:, best]
    np.testing.assert_allclose(decode(cg, cb), expected.astype(np.float64), rtol=1e-12)


def test_compress_two_segments_minmax():
    cb = sob(8)
    g = Stream(3).normals(16)
    cg = compress(g, cb, 0, Variant.GREEDY, Stream(0))
    assert len(cg.indices) == 2
    norms = list(cg.norms)
    assert cg.u_min <= min(norms) and cg.u_max >= max(norms)
    # f32 outward rounding keeps the bounds within one ulp of the exact norms
    assert min(norms) - cg.u_min <= abs(min(norms)) * 1e-6 + 1e-30
    assert cg.u_max - max(norms) <= abs(max(norms)) * 1e-6 + 1e-30


def test_compress_pads_and_decode_strips():
    cb = sob(8)
    g = np.arange(1.0, 11.0)  # d=10
    cg = compress(g, cb, 0, Variant.GREEDY, Stream(0))
    assert len(cg.indices) == 2
    out = decode(cg, cb)
    assert out.shape == (10,)


def test_compress_rejects_bad_input():
    cb = sob(4)
    with pytest.raises(InvalidGradient):
        compress(np.array([]), cb, 0, Variant.GREEDY, Stream(0))
    with pytest.raises(InvalidGradient):
        compress(np.array([1.0, np.inf, 0, 0]), cb, 0, Variant.GREEDY, Stream(0))
    with pytest.raises(ValueError):
        compress(np.ones(4), cb, -1, Variant.GREEDY, Stream(0))


def test_compress_schedule_independent():
    # per-segment derived streams: same result regardless of how many
    # draws the parent stream made before
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=5)
    g = Stream(8).normals(24)
    rng1 = Stream(77)
    a = compress(g, cb, 15, Variant.UNBIASED, rng1)
    rng2 = Stream(77)
    rng2.uniforms(1000)  # consume parent state; derive() must not care
    b = compress(g, cb, 15, Variant.UNBIASED, rng2)
    assert a == b


def test_decode_zero_codes_zero_vector():
    cb = sob(4)
    cg = compress(np.zeros(8), cb, 0, Variant.GREEDY, Stream(0))
    np.testing.assert_array_equal(decode(cg, cb), np.zeros(8))


def test_decode_matches_scalar_reference():
    # straight-line reference decoder: explicit python loops, no vector ops
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=6)
    for trial in range(100):
        st = Stream(100).derive(trial)
        g = st.derive("g").normals(20)
        s = [0, 7, 63][trial % 3]
        cg = compress(g, cb, s, Variant.UNBIASED, st.derive("q"))
        expected = []
        for j in range(len(cg.indices)):
            if cg.grid is not None:
                u = cg.u_min + int(cg.grid[j]) * ((cg.u_max - cg.u_min) / cg.levels)
            else:
                u = float(cg.norms[j])
            for i in range(cb.dim):
                expected.append(u * cb.columns[i, cg.indices[j]])
        np.testing.assert_array_equal(decode(cg, cb), np.array(expected[:20]))


def test_decode_dimension_mismatch():
    cb8, cb4 = sob(8), sob(4)
    cg = compress(np.ones(8), cb8, 0, Variant.GREEDY, Stream(0))
    with pytest.raises(DimensionMismatch):
        decode(cg, cb4)


def test_decode_checks_segment_count():
    # d=100 at d'=16 is 7 segments; 2 records would decode to 32 entries
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 16, 32, seed=0)
    cg = CompressedGradient(total_dim=100, segment_dim=16, codeword_count=32, levels=0,
                            u_min=0.0, u_max=1.0, indices=np.array([0, 1]),
                            norms=np.array([0.0, 1.0]), grid=None)
    with pytest.raises(DimensionMismatch, match="2 segments cannot carry d=100"):
        decode(cg, cb)
    good = compress(Stream(1).normals(100), cb, 0, Variant.GREEDY, Stream(0))
    for batch in ([cg], [good, cg]):
        with pytest.raises(DimensionMismatch):
            aggregate(batch, cb)


# the integer rule's message for each malformed header value below
_HEADER_PROBLEMS = {4.0: "must be an int, got 4.0", 0: "must be >= 1, got 0",
                    -1: "must be >= 0, got -1", 1.5: "must be an int, got 1.5",
                    2 ** 32: "must be <= 4294967295, got 4294967296"}


@pytest.mark.parametrize("indices,norms,header", [
    ([-1], [1.0], {}), ([4], [1.0], {}), ([0], np.array([], dtype=np.float64), {}),
    (np.array([0.0]), [1.0], {}), ([[0]], [1.0], {}), ([0], ["1.0"], {}), ([0], [np.nan], {}),
    ([0], [np.inf], {}), ([0], [[1.0]], {}), ([0], [1], {}), (np.array([False]), [1.0], {}),
    ([0], np.array([1.0], dtype=object), {}),
    ([0], [1.0], dict(total_dim=4.0)), ([0], [1.0], dict(segment_dim=4.0)),
    ([0], [1.0], dict(codeword_count=4.0)),
    ([0], [1.0], dict(total_dim=0)), ([0], [1.0], dict(levels=-1)),
    ([0], [1.0], dict(levels=1.5)), ([0], [1.0], dict(levels=2 ** 32)),
], ids=["negative-index", "index-m", "no-norm", "float-index", "2-d-index", "str-norm",
        "nan-norm", "inf-norm", "2-d-norm", "int-norm", "bool-index", "object-norm",
        "float-d", "float-d-prime", "float-m", "d-0", "negative-s", "float-s", "s-2**32"])
def test_decode_rejects_malformed_codes(indices, norms, header):
    # one raw-norm segment at d = d' = m = 4, built by hand as a caller could;
    # wire.encode_frame refuses each of them too, by the same rule
    cb = sob(4)
    fields = {**dict(total_dim=4, segment_dim=4, codeword_count=4, levels=0), **header}
    cg = CompressedGradient(**fields, u_min=0.0, u_max=1.0,
                            indices=np.asarray(indices), norms=np.asarray(norms), grid=None)
    good = compress(np.ones(4), cb, 0, Variant.GREEDY, Stream(0))
    name, value = next(iter(header.items()), (None, None))
    match = (f"{name}: {_HEADER_PROBLEMS[value]}" if header
             else r"a pseudo-norm and an index in \[0, 4\)")
    for call in (lambda: decode(cg, cb), lambda: aggregate([cg], cb),
                 lambda: aggregate([good, cg], cb)):
        with pytest.raises(DimensionMismatch, match=match):
            call()
    with pytest.raises({0: InvalidGradient, 2 ** 32: Overflow}.get(value, WireFormatError)):
        encode_frame(cg)


def test_codec_entry_points_refuse_what_is_not_a_compressed_gradient():
    cb = sob(4)
    good = compress(np.ones(4), cb, 0, Variant.GREEDY, Stream(0))
    for item in (np.ones(4), None, [good]):
        for call in (lambda: decode(item, cb), lambda: aggregate([item], cb),
                     lambda: aggregate([good, item], cb)):
            with pytest.raises(InvalidGradient, match="only a CompressedGradient"):
                call()
        with pytest.raises(WireFormatError, match="only a CompressedGradient"):
            encode_frame(item)


def test_decoded_levels_stay_in_interval():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=7)
    g = Stream(11).normals(40)
    cg = compress(g, cb, 5, Variant.UNBIASED, Stream(12))
    for level in cg.grid:
        u = cg.u_min + level * ((cg.u_max - cg.u_min) / cg.levels)
        assert cg.u_min - 1e-12 <= u <= cg.u_max + 1e-12


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_single_is_decode():
    cb = sob(4)
    cg = compress(np.array([1.0, 2, 3, 4]), cb, 0, Variant.GREEDY, Stream(0))
    np.testing.assert_array_equal(aggregate([cg], cb), decode(cg, cb))


def test_aggregate_mean_by_hand():
    # two devices quantized the same segment to u=1*e1 and u=3*e1 -> mean 2*e1
    cb = sob(2)
    mk = lambda u: CompressedGradient(
        total_dim=2, segment_dim=2, codeword_count=2, levels=0,
        u_min=min(u, 0.0), u_max=max(u, 0.0),
        indices=np.array([0]), norms=np.array([u]), grid=None)
    out = aggregate([mk(1.0), mk(3.0)], cb)
    np.testing.assert_array_equal(out, [2.0, 0.0])


def test_aggregate_converges_to_g():
    # many unbiased compressions of one gradient average toward it
    cb = generate(CodebookMethod.RANDOM_ROTATION, 8, 8, seed=3)
    g = Stream(14).normals(8)
    frames = [compress(g, cb, 0, Variant.UNBIASED, Stream(15).derive(i))
              for i in range(1000)]
    mean = aggregate(frames, cb)
    # per-coordinate MC standard error from the decoded population
    decs = np.stack([decode(f, cb) for f in frames])
    se = decs.std(axis=0) / np.sqrt(len(frames))
    assert np.all(np.abs(mean - g) <= 3 * se + 1e-12)


def test_aggregate_errors():
    cb = sob(4)
    with pytest.raises(EmptyInput):
        aggregate([], cb)
    a = compress(np.ones(4), cb, 0, Variant.GREEDY, Stream(0))
    b = compress(np.ones(8), cb, 0, Variant.GREEDY, Stream(0))
    with pytest.raises(DimensionMismatch):
        aggregate([a, b], cb)


# ---------------------------------------------------------------------------
# pinned outputs: frames, decoded gradients and their aggregate must stay
# bit-identical across refactors of the codec's representation

# (codebook method, d', m, d): every d leaves a ragged tail when d' > 1; the
# last d has enough segments to batch them, the one before it too few
_PIN_GRID = (("random-gaussian", 1, 1, 37),
             ("random-rotation", 16, 16, 105),
             ("random-gaussian", 16, 256, 105),
             ("random-gaussian", 16, 256, 16 * 1024 + 5))
_PIN_DIGESTS = {  # (frames, decoded gradients, aggregate), keyed by (m, d)
    (1, 37): ("28b42a475bfd4ea74359d62f2d9740155eddfbe3d58bb62087778d45740d4432",
              "b3b2a75aa68926dcfecf21aa830913ef301f73ee081390bd4f1e94ab5d8fedc8",
              "59772b0e90695cb2ec184e9aca93314a70a27179725699081f51753cc785e1d3"),
    (16, 105): ("2048d4bbccfe21cf8fc4039c2b07658488ef0467e37e8ab2f5a26cbf752ac0a9",
                "3d02a6f63ceaeb85c9e6cffab02525454e5341f4d67203b61059e8273320bc63",
                "ac7bc61baee3969ce4b6392a2cdf6b7a068f7ef5e6e2abcf822a5afa3396468b"),
    (256, 105): ("25d8c192e0faf69e14a1023758aae5ce44e8e773871cd1c6850622d3127affec",
                 "b6d3ab1c81070bcfdd7ae84cbe44f7419597c14cc12eb7c285a11239b9ee896e",
                 "22fb41f7b18b361b7e660a548ce449d4b203492b006acdc58235e59c99b563ef"),
    (256, 16389): ("4851a9b9e06e0f5319b0def12b616c5431f7b8a8f4d7468908695ca685049ee6",
                   "813e8dd82e39534224bbce312b81e0cdee2fa3b16d3e402d92d7cb2a372b9744",
                   "2cc12e6190552843ddacdd6c2501cb206afb2fb3f30c6c11d1a19867adc8417b"),
}


@pytest.mark.parametrize("method,d_prime,m,d", _PIN_GRID)
def test_codec_outputs_pinned(method, d_prime, m, d):
    import hashlib

    from hsq.wire import decode_frame, encode_frame

    cb = generate(method, d_prime, m, seed=11)
    st = Stream(1911).derive("pin", m)
    n_seg = -(-d // d_prime)
    # segment scales 2^-10 .. 2^10 (exact, no transcendental functions) and
    # one all-zero segment
    scales = np.exp2(np.floor(st.derive("scale").uniforms(n_seg) * 21) - 10)
    scales[1] = 0.0
    g = (2 * st.derive("g").uniforms(d) - 1) * np.repeat(scales, d_prime)[:d]
    frames, decoded, cgs = hashlib.sha256(), hashlib.sha256(), []
    for variant in (Variant.UNBIASED, Variant.GREEDY):
        for s in (0, 7, 63):
            cg = compress(g, cb, s, variant, st.derive("q", variant.value, s))
            frame = encode_frame(cg)
            x = decode(cg, cb)
            np.testing.assert_array_equal(decode(decode_frame(frame), cb), x)
            frames.update(frame)
            decoded.update(x.tobytes())
            cgs.append(cg)
    got = (frames.hexdigest(), decoded.hexdigest(),
           hashlib.sha256(aggregate(cgs, cb).tobytes()).hexdigest())
    assert got == _PIN_DIGESTS[m, d]


# ---------------------------------------------------------------------------
# equivalence with a straight-line per-segment compressor


def _reference_compress(g, cb, s, variant, rng):
    """Per-segment compress: one derive(j), one GEMV, one searchsorted and
    one scalar rounding per segment, each written out by hand."""
    d = g.shape[0]
    n_seg = -(-d // cb.dim)
    padded = np.zeros(n_seg * cb.dim)
    padded[:d] = g
    indices, norms, streams = [], [], []
    for j in range(n_seg):
        seg = padded[j * cb.dim:(j + 1) * cb.dim]
        st = rng.derive(j)
        streams.append(st)
        if not np.any(seg):
            i, u = 0, 0.0
        elif variant is Variant.UNBIASED:
            p = cb.pinv @ seg
            l1 = float(np.abs(p).sum())
            with np.errstate(invalid="ignore"):  # 0/0 where p underflows to zero
                cdf = np.cumsum(np.abs(p) / l1)
            i = int(np.searchsorted(cdf[:-1], st.uniform(), side="right"))
            u = math.copysign(l1, p[i])
        else:
            corr = cb.columns.T @ seg
            i = int(np.argmax(np.abs(corr)))
            u = float(corr[i])
        indices.append(i)
        norms.append(u)
    with np.errstate(over="ignore"):  # beyond f32 becomes inf, refused below
        u_min, u_max = float(np.float32(min(norms))), float(np.float32(max(norms)))
    if u_min > min(norms):
        u_min = float(np.nextafter(np.float32(u_min), np.float32(-np.inf)))
    if u_max < max(norms):
        u_max = float(np.nextafter(np.float32(u_max), np.float32(np.inf)))
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise Overflow("reference: pseudo-norms beyond f32")
    grid = None
    if s >= 1:
        grid = []
        for u, st in zip(norms, streams):
            u = min(max(u, u_min), u_max)
            delta = (u_max - u_min) / s
            if delta == 0.0:
                grid.append(0)
                continue
            k = min(int((u - u_min) / delta), s - 1)
            p_lower = ((k + 1) * delta + u_min - u) / delta
            grid.append(k if st.uniform() < p_lower else k + 1)
        grid = np.array(grid, dtype=np.int64)
        norms = u_min + grid * ((u_max - u_min) / s)  # the grid values the receiver decodes
    else:
        norms = np.array(norms, dtype=np.float32)
    return CompressedGradient(total_dim=d, segment_dim=cb.dim, codeword_count=cb.count,
                              levels=s, u_min=u_min, u_max=u_max,
                              indices=np.array(indices, dtype=np.int64),
                              norms=np.array(norms, dtype=np.float64), grid=grid)


# (codebook method, d', m, d): d spans several 2^16-entry blocks of
# segments x codewords where that stays quick, and always ends ragged
_REF_GRID = (("random-gaussian", 1, 1, 1001),
             ("sob", 16, 16, 16 * 4196 - 9),
             ("random-gaussian", 16, 256, 16 * 549 - 3),
             ("random-gaussian", 8, 1024, 8 * 197 - 5))


@pytest.mark.parametrize("method,d_prime,m,d", _REF_GRID)
def test_compress_matches_per_segment_reference(method, d_prime, m, d):
    cb = generate(method, d_prime, m, seed=3)
    st = Stream(404).derive("ref", m)
    n_seg = -(-d // d_prime)
    scales = np.exp2(np.floor(st.derive("scale").uniforms(n_seg) * 21) - 10)
    g = (2 * st.derive("g").uniforms(d) - 1) * np.repeat(scales, d_prime)[:d]
    # all-zero, -0.0, subnormal, tied (constant) and lone-subnormal segments,
    # some of them on block boundaries
    for j, value in ((0, 0.0), (1, -0.0), (2, 5e-324), (3, 0.25), (63, 0.0),
                     (64, 5e-324), (255, -0.0), (256, 0.25), (n_seg - 2, 0.0)):
        if j < n_seg - 1:
            g[j * d_prime:(j + 1) * d_prime] = value
    g[min(4, n_seg - 2) * d_prime] = -5e-324
    for variant in (Variant.UNBIASED, Variant.GREEDY):
        for s in (0, 1, 7, 63):
            rng = st.derive("q", variant.value, s)
            want = _reference_compress(g, cb, s, variant, rng)
            assert compress(g, cb, s, variant, rng) == want, (variant, s)


def test_compress_pseudo_norm_overflow_raises():
    cb = generate("random-gaussian", 4, 8, seed=1)
    g = np.concatenate([np.ones(8), np.full(4, 1e300)])
    for variant in (Variant.UNBIASED, Variant.GREEDY):
        with pytest.raises(Overflow):
            compress(g, cb, 7, variant, Stream(1))
        with pytest.raises(Overflow):
            _reference_compress(g, cb, 7, variant, Stream(1))


# ragged; one segment, so every interval is degenerate; enough segments to batch them
@pytest.mark.parametrize("d", [40, 10, 1, 16 * 1024 + 5])
def test_compress_rows_match_compress_row_by_row(d):
    cb = generate("random-gaussian", 16, 32, seed=4)
    st = Stream(8).derive("rows", d)
    rows = st.derive("g", np.arange(6)).normals(d)
    rows[2] = 0.0  # an all-zero row
    rows[4] *= 1e-300
    for variant in (Variant.UNBIASED, Variant.GREEDY):
        for s in (0, 7, 63):
            for n in (1, 6):
                streams = st.derive("q", np.arange(n))
                indices, norms, grid, u_min, u_max = _compress_rows(rows[:n], cb, s, variant,
                                                                    streams)
                assert indices.shape == norms.shape == (n, -(-d // 16))
                assert (grid is None) == (s == 0)
                for r in range(n):
                    want = compress(rows[r], cb, s, variant, st.derive("q", r))
                    # bytes, so that 0.0 and -0.0 differ
                    assert indices[r].tobytes() == want.indices.tobytes()
                    assert norms[r].tobytes() == want.norms.tobytes()
                    assert (np.array([u_min[r], u_max[r]]).tobytes()
                            == np.array([want.u_min, want.u_max]).tobytes())
                    if s:
                        assert grid[r].tobytes() == want.grid.tobytes()


def test_compress_rows_degenerate_interval_gets_level_zero():
    # greedy on the SOB: every segment of a constant row has u = that constant,
    # so u_min = u_max and every level is 0, with no 0/0 on the way; at 2^70,
    # the live-cell formula would give p_lower = (1 + u) - u = 0, not 1
    cb = sob(4)
    rows = np.vstack([np.full(12, 0.5), np.full(12, 2.0 ** 70), np.arange(12.0)])
    indices, norms, grid, u_min, u_max = _compress_rows(rows, cb, 7, Variant.GREEDY,
                                                        Stream(2).derive(np.arange(3)))
    assert u_min[:2].tolist() == u_max[:2].tolist() == [0.5, 2.0 ** 70]
    assert grid[:2].tolist() == [[0, 0, 0], [0, 0, 0]]
    assert u_min[2] < u_max[2]


def test_compress_rows_overflow_in_any_row_raises():
    cb = generate("random-gaussian", 4, 8, seed=1)
    rows = np.ones((3, 12))
    rows[1, 8:] = 1e300
    for variant in (Variant.UNBIASED, Variant.GREEDY):
        with pytest.raises(Overflow):
            _compress_rows(rows, cb, 7, variant, Stream(1).derive(np.arange(3)))


# ---------------------------------------------------------------------------
# the unbiased rule's certified two-level search against a straight-line rule

# (codebook method, d', m): prime m (groups of one), square codebooks (m = d')
# and the codec's shape
_SEARCH_GRID = (("random-gaussian", 3, 7), ("random-gaussian", 5, 31), ("sob", 16, 16),
                ("random-rotation", 9, 9), ("random-gaussian", 16, 256))


def _search_segments(cb, st):
    """Gaussian segments, scaled by 2^300 and 2^-300, sparse with zero tails,
    subnormal (all entries, and lone ones) and all-zero."""
    d = cb.dim
    g = st.derive("g").normals(4 * d).reshape(4, d)
    sparse = np.zeros((2, d))
    sparse[0, :-(-d // 2)] = g[0, :-(-d // 2)]
    sparse[1, 0] = -3.0
    return np.vstack([g[:2], g[2] * 2.0 ** 300, g[3] * 2.0 ** -300, sparse,
                      g[0] * 2.0 ** -1060, np.full(d, 5e-324), np.zeros(d)])


def _cdf(seg, cb):
    """cumsum(|pinv @ g| / l1), the unbiased rule's CDF on one segment, and l1."""
    mag = np.abs(cb.pinv @ seg)
    l1 = mag.sum()
    with np.errstate(invalid="ignore"):  # 0/0 on an all-zero segment
        return np.cumsum(mag / l1), l1


@pytest.mark.parametrize("method,d_prime,m", _SEARCH_GRID)
def test_certified_search_matches_searchsorted_rule(monkeypatch, method, d_prime, m):
    from hsq import quantizers

    cb = generate(method, d_prime, m, seed=6)
    st = Stream(77).derive("search", m)
    segments = _search_segments(cb, st)
    rows, draws, boundary = [], [], []
    for r, seg in enumerate(segments):
        cdf, l1 = _cdf(seg, cb)
        for c in cdf[:-1]:  # one ulp below, on and one ulp above each CDF value
            x = [np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)]
            if 0.0 <= x[0] and x[2] < 1.0:
                rows.append(r)
                draws.append(x)
                boundary.append(True)
        rows.append(r)  # at and past the CDF's end
        draws.append([np.nextafter(1.0, 0.0), 1.0, 2.0])
        boundary.append(True)
        for x in st.derive("x", r).uniforms(3 * 40).reshape(40, 3):
            rows.append(r)
            draws.append(x.tolist())
            boundary.append(False)
    rows, draws = np.array(rows), np.array(draws)
    # the straight-line rule, one segment and one draw at a time
    want = np.array([[np.searchsorted(_cdf(segments[r], cb)[0][:-1], x, side="right")
                      for x in xs] for r, xs in zip(rows, draws)])
    live = segments[rows].any(axis=1)
    want[~live] = 0

    for forced in (False, True):  # the size selection's own choice, then the two-level search
        if forced:
            monkeypatch.setattr(quantizers, "_TWO_LEVEL_MIN", 0)
        fallback = set()
        real = quantizers._cdf_search

        def spy(mag, l1):
            search = real(mag, l1)

            def recorded(x):
                fallback.update(map(tuple, x.tolist()))
                return search(x)
            return recorded

        monkeypatch.setattr(quantizers, "_cdf_search", spy)
        for k in (1, 3):
            idx, _ = _select(np.repeat(segments[rows], 3 // k, axis=0), cb,
                             draws.reshape(-1, k))
            assert idx.reshape(want.shape).tolist() == want.tolist(), (forced, k)
        monkeypatch.setattr(quantizers, "_cdf_search", real)
        if forced:
            l1 = np.array([_cdf(seg, cb)[1] for seg in segments])[rows]
            in_range = (2.0 ** -900 <= l1) & (l1 <= 2.0 ** 900)
            took = np.array([tuple(x) in fallback for x in draws.tolist()])
            assert took[boundary].all()
            # every random draw on a segment of ordinary scale was certified,
            # and l1 = 0 has the exact rule's answer without the fallback
            # (random draws only: the end-of-CDF row is the same on every segment)
            random = ~np.array(boundary)
            assert not took[random & in_range].any()
            assert took[~in_range & (l1 > 0)].all() and not took[random & (l1 == 0)].any()


def test_certified_search_matches_searchsorted_rule_under_haswell_kernel():
    """The search test again, in a child process on OpenBLAS's Haswell kernel,
    whose sums round differently; the digest pins are left out, they differ there."""
    if openblas_core() is None:
        pytest.skip("numpy's bundled OpenBLAS is not readable here")
    read, proc = run_tests_on_kernel("Haswell", [
        "-k", "test_certified_search_matches_searchsorted_rule and not haswell", __file__])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert read == "Haswell"
    assert f"{len(_SEARCH_GRID)} passed" in proc.stdout


def test_variance_bound_peak_memory_flat_in_draws():
    cb = generate("random-gaussian", 16, 32, seed=0)
    peaks = [traced_peak(lambda: check_variance_bound(cb, 128, 7, n_draws, Stream(3)))
             for n_draws in (400, 20_000)]
    # 20,000 gradients of 128 doubles alone would take 19.5 MiB
    assert peaks[1] < peaks[0] + 2 ** 20 and peaks[1] < 4 * 2 ** 20, peaks


def test_compress_peak_memory_flat_in_segments():
    cb = generate("random-gaussian", 16, 256, seed=2)
    g = Stream(5).normals(100_003)
    peak = traced_peak(lambda: compress(g, cb, 63, Variant.UNBIASED, Stream(6)))
    assert peak < 4 * 2 ** 20, peak


def test_sample_unbiased_peak_memory_flat_in_draws():
    cb = generate("random-gaussian", 16, 256, seed=2)
    g = Stream(5).normals(16)
    out = []
    peak = traced_peak(lambda: out.extend(_select(g[None], cb, Stream(6).uniforms(200_000)[None])))
    idx, u = out
    assert idx.shape == u.shape == (1, 200_000)
    assert peak < 8 * 2 ** 20, peak  # the two results alone take 3.05 MiB


# the codec at d = 100,003, m = 256, d' = 16 (6,251 segments, 25 blocks of 256): a
# gradient, its padded copy or a decoded gradient takes 781 KiB, a block's p or |p| 512
_CODEC_D = 100_003


@pytest.mark.parametrize("name, bound_kib", [("compress", 2200), ("decode", 900),
                                             ("aggregate", 1700)])
def test_codec_peak_memory_at_d100k(name, bound_kib):
    # one steady-state call, after a first that fills the tables every call reads (the
    # block slices, the child tag words); compress holds one block's p and |p| for all
    # blocks, decode only its output, aggregate its running total and one decoding
    cb = generate("random-gaussian", 16, 256, seed=2)
    cgs = [compress(Stream(7).derive(i).normals(_CODEC_D), cb, s, variant, Stream(i))
           for i, (variant, s) in enumerate((v, s) for v in Variant for s in (0, 63))]
    g = Stream(5).normals(_CODEC_D)
    call = {"compress": lambda: compress(g, cb, 63, Variant.UNBIASED, Stream(6)),
            "decode": lambda: decode(cgs[1], cb), "aggregate": lambda: aggregate(cgs, cb)}[name]
    call()
    peak = traced_peak(call)
    assert peak <= bound_kib * 1024, peak


@pytest.mark.parametrize("block", [2 ** e for e in range(12, 18)])
def test_block_size_leaves_outputs_unchanged(monkeypatch, block):
    # _select writes every block into the first block's arrays; block sizes from 16 to
    # 512 segments at m = 256 (the smaller ones take the exact search) end in a shorter
    # last block, and 1,500 draws of one segment are split into blocks of draws
    from hsq import quantizers

    cb = generate("random-gaussian", 16, 256, seed=2)
    g = Stream(9).normals(16 * 1000 + 5)  # 1,001 segments
    g[16 * 40:16 * 41] = 0.0
    g[16 * 41:16 * 42] *= 2.0 ** -1070  # live, with |p| underflowing to 0
    segments, draws = g[:16 * 3].reshape(3, 16), Stream(10).uniforms(3 * 1500).reshape(3, 1500)

    def outputs():
        quantizers._blocks.cache_clear()  # its slices follow _BLOCK
        frames = [encode_frame(compress(g, cb, s, variant, Stream(11)))
                  for variant in Variant for s in (0, 63)]
        return frames, [a.tobytes() for a in _select(segments, cb, draws)]

    want = outputs()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(quantizers, "_BLOCK", block)
            got = outputs()
    finally:
        quantizers._blocks.cache_clear()
    assert got == want

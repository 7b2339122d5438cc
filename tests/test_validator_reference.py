"""Straight-line per-draw references for the Monte-Carlo validators.

Each reference draws ``rng.derive(i)`` once per draw and projects one
row at a time with a 1-D product, exactly as the validators are specified.
The library must reproduce them bit for bit, however it batches its
draws; the variance-bound reference quantizes one gradient per ``compress``
call. Seeded ``random_frame`` output is pinned by a SHA-256 digest.
"""

import hashlib
import math

import numpy as np
import pytest

from hsq.codebook import generate
from hsq.fedsim import vq_bound
from hsq.metrics import (_z_from_moments, beta_correlation, check_alpha, check_unbiasedness,
                         check_variance_bound, greedy_residual_sq, greedy_vs_unbiased_mse,
                         unbiased_expected_residual_sq)
from hsq.quantizers import Variant, compress, decode
from hsq.rng import Stream
from hsq.wire import encode_frame, random_frame

# (method, d', m): every codebook family, plus a ragged d' = 3, m = 7
_CODEBOOKS = (("sob", 16, 16), ("random-rotation", 16, 16), ("random-gaussian", 16, 32),
              ("kmeans-gaussian", 16, 32), ("random-gaussian", 3, 7), ("sob", 1, 1))


def _ref_beta(g, cb):
    return float(np.max(np.abs(cb.columns.T @ g)))


def _ref_greedy_residual_sq(g, cb):
    return float(g @ g - _ref_beta(g, cb) ** 2)


def _ref_unbiased_residual_sq(g, cb):
    p = cb.pinv @ g
    return float(np.abs(p).sum() ** 2 - g @ g)


def _ref_alpha_worst(cb, n_draws, rng):
    worst = math.inf
    for i in range(n_draws):
        g = rng.derive(i).normals(cb.dim)
        g /= np.linalg.norm(g)
        worst = min(worst, _ref_beta(g, cb) ** 2)
    return worst


def _ref_mse(cb, n_draws, rng):
    tot_greedy, tot_unbiased = 0.0, 0.0
    for i in range(n_draws):
        g = rng.derive(i).normals(cb.dim)
        tot_greedy += _ref_greedy_residual_sq(g, cb)
        tot_unbiased += _ref_unbiased_residual_sq(g, cb)
    return tot_greedy / n_draws, tot_unbiased / n_draws


@pytest.mark.parametrize("method,d_prime,m", _CODEBOOKS)
@pytest.mark.parametrize("n_draws", [1, 257])
def test_validators_match_per_draw_reference(method, d_prime, m, n_draws):
    cb = generate(method, d_prime, m, seed=3)
    rng = Stream(41).derive(method, d_prime, m)
    res = check_alpha(cb, n_draws, rng)
    assert res.worst == _ref_alpha_worst(cb, n_draws, rng)
    assert res.floor == cb.sigma_min ** 2 / cb.count
    assert greedy_vs_unbiased_mse(cb, n_draws, rng) == _ref_mse(cb, n_draws, rng)


@pytest.mark.parametrize("method,d_prime,m", _CODEBOOKS)
def test_row_helpers_match_per_row_reference(method, d_prime, m):
    cb = generate(method, d_prime, m, seed=3)
    rows = [Stream(43).derive(i).normals(d_prime) for i in range(64)]
    rows += [np.zeros(d_prime), -rows[0], rows[1] * 1e-300]
    for g in rows:
        assert beta_correlation(g, cb) == _ref_beta(g, cb)
        assert greedy_residual_sq(g, cb) == _ref_greedy_residual_sq(g, cb)
        assert unbiased_expected_residual_sq(g, cb) == _ref_unbiased_residual_sq(g, cb)


def _ref_variance_bound(cb, d, s, n_draws, rng):
    sq_norms, worst_range = [], 0.0
    for i in range(n_draws):
        st = rng.derive(i)
        g = st.derive("g").normals(d)
        cg = compress(g, cb, s, Variant.UNBIASED, st.derive("q"))
        sq_norms.append(float(np.sum(decode(cg, cb) ** 2)))
        worst_range = max(worst_range, cg.u_max - cg.u_min)
    sq_norms = np.array(sq_norms)
    empirical = float(sq_norms.mean())
    mc_slack = 4.0 * float(sq_norms.std()) / math.sqrt(n_draws)
    bound = vq_bound(d, cb, s, cb.dim, worst_range)
    return empirical, mc_slack, bound, empirical <= bound + mc_slack


# (method, d', m, d, s, n_draws): the analyze config, every s the library
# uses, a ragged d, one draw, and d <= d' (one segment, so u_min = u_max and
# the grid is degenerate)
_VARIANCE_CASES = (("random-gaussian", 16, 32, 128, 7, 400),
                   ("random-gaussian", 16, 32, 128, 63, 50),
                   ("random-gaussian", 16, 32, 120, 0, 50),
                   ("random-gaussian", 16, 32, 120, 1, 50),
                   ("random-rotation", 16, 16, 64, 7, 50),
                   ("random-gaussian", 3, 7, 20, 63, 1),
                   ("random-gaussian", 16, 32, 10, 7, 20),
                   ("sob", 1, 1, 1, 1, 5))


@pytest.mark.parametrize("method,d_prime,m,d,s,n_draws", _VARIANCE_CASES)
def test_variance_bound_matches_per_draw_reference(method, d_prime, m, d, s, n_draws):
    cb = generate(method, d_prime, m, seed=0)
    rng = Stream(53).derive("varbound", d, s)
    res = check_variance_bound(cb, d, s, n_draws, rng)
    empirical, mc_slack, bound, passed = _ref_variance_bound(cb, d, s, n_draws, rng)
    assert (res.empirical, res.mc_slack, res.bound, res.passed) == (empirical, mc_slack, bound,
                                                                     passed)


def _ref_greedy_z(g, cb):
    """Greedy z-scores as (cb.columns[:, idx] * u).T - segments, one segment at a time."""
    d = g.shape[0]
    n_seg = -(-d // cb.dim)
    padded = np.zeros(n_seg * cb.dim)
    padded[:d] = g
    z = []
    for j in range(n_seg):
        seg = padded[j * cb.dim:(j + 1) * cb.dim]
        i, u = 0, 0.0
        if seg.any():
            corr = cb.columns.T @ seg
            i = int(np.argmax(np.abs(corr)))
            u = corr[i]
        diff = cb.columns[:, i] * u - seg
        z.extend(math.copysign(math.inf, x) if x != 0.0 else 0.0 for x in diff)
    return np.array(z[:d])


@pytest.mark.parametrize("method,d_prime,m", [("sob", 8, 8), ("random-rotation", 8, 8),
                                              ("random-gaussian", 8, 16),
                                              ("kmeans-gaussian", 8, 16)])
def test_greedy_unbiasedness_matches_per_segment_reference(method, d_prime, m):
    # ragged d = 21 on d' = 8, with and without an all-zero middle segment
    cb = generate(method, d_prime, m, seed=5)
    g = Stream(59).derive(method).normals(21)
    for grad in (g, np.concatenate([g[:8], np.zeros(8), g[16:]])):
        z = check_unbiasedness("greedy", cb, grad, 10, Stream(61))
        ref = _ref_greedy_z(grad, cb)
        assert z.shape == (21,)
        assert z.tobytes() == ref.tobytes()


def _ref_unbiased_z(g, cb, n_draws, rng):
    """Unbiased z-scores one segment at a time, segment j drawing from rng.derive(j)."""
    d = g.shape[0]
    n_seg = -(-d // cb.dim)
    padded = np.zeros(n_seg * cb.dim)
    padded[:d] = g
    z = np.empty(n_seg * cb.dim)
    for j in range(n_seg):
        seg = padded[j * cb.dim:(j + 1) * cb.dim]
        idx, u = np.zeros(n_draws, dtype=np.int64), np.zeros(n_draws)
        if seg.any():
            p = cb.pinv @ seg
            l1 = np.abs(p).sum()
            cdf = np.cumsum(np.abs(p) / l1)
            idx = np.searchsorted(cdf[:-1], rng.derive(j).uniforms(n_draws), side="right")
            u = np.copysign(l1, p[idx])
        counts = np.bincount(idx, minlength=cb.count) / n_draws
        # a draw's value is determined by its index, so tabulate u per index
        per_index_u = np.zeros(cb.count)
        per_index_u[idx] = u
        vals = cb.columns * per_index_u  # column j = u_j * c_j
        mean = vals @ counts
        ex2 = (vals ** 2) @ counts
        z[j * cb.dim:(j + 1) * cb.dim] = _z_from_moments(mean, ex2, seg, n_draws)
    return z[:d]


@pytest.mark.parametrize("method,d_prime,m", [("sob", 8, 8), ("random-rotation", 8, 8),
                                              ("random-gaussian", 8, 16),
                                              ("kmeans-gaussian", 8, 16)])
@pytest.mark.parametrize("n_draws", [1, 7, 300, 20_000])
def test_unbiasedness_matches_per_segment_reference(method, d_prime, m, n_draws):
    # a ragged tail and an all-zero segment; below 20,000 draws, 601 segments,
    # which fill one block of many segments or several blocks
    cb = generate(method, d_prime, m, seed=5)
    g = Stream(67).derive(method).normals(21 if n_draws == 20_000 else 4803)
    g[8:16] = 0.0
    rng = Stream(71).derive(n_draws)
    z = check_unbiasedness("unbiased", cb, g, n_draws, rng)
    assert z.shape == g.shape
    assert z.tobytes() == _ref_unbiased_z(g, cb, n_draws, rng).tobytes()


def test_random_frames_pinned():
    root = Stream(47).derive("frames")
    digest = hashlib.sha256()
    for i in range(2000):
        digest.update(encode_frame(random_frame(root.derive(i))))
    assert digest.hexdigest() == _FRAMES_DIGEST


_FRAMES_DIGEST = "ab6c8447fc5bf4d2a4c3301461badec0e87bd0bc6150a7641fb09efa0a759fc2"

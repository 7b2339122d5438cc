import math

import numpy as np
import pytest

from hsq import metrics, quantizers
from hsq.codebook import Codebook, CodebookMethod, generate
from hsq.errors import InvalidGradient
from hsq.metrics import (beta_correlation, greedy_residual_sq,
                         greedy_vs_unbiased_mse, ks_threshold, ks_two_sample,
                         pseudo_norm_z, run_validator_suite, check_alpha,
                         check_unbiasedness, check_variance_bound,
                         unbiased_expected_residual_sq, variance_vs_clients)
from hsq.fedsim import vq_bound
from hsq.quantizers import Variant, _select, compress
from hsq.rng import Stream


# ---------------------------------------------------------------------------
# unbiasedness z-scores


def test_unbiased_z_within_clt_band():
    for method in (CodebookMethod.RANDOM_ROTATION, CodebookMethod.RANDOM_GAUSSIAN):
        cb = generate(method, 8, 16 if method is CodebookMethod.RANDOM_GAUSSIAN else 8,
                      seed=1)
        g = Stream(2).derive(method.value).normals(24)
        z = check_unbiasedness("unbiased", cb, g, 40_000, Stream(3).derive(method.value))
        assert z.shape == (24,)
        assert np.max(np.abs(z)) <= 4.0


def test_greedy_bias_is_detected():
    cb = generate(CodebookMethod.RANDOM_ROTATION, 8, 8, seed=4)
    g = Stream(5).normals(8)
    z = check_unbiasedness("greedy", cb, g, 10, Stream(6))
    # reconstruction from one codeword cannot match a generic gradient
    assert np.sum(np.isinf(z)) >= 7
    assert check_unbiasedness(Variant.GREEDY, cb, g, 10, Stream(6)).tobytes() == z.tobytes()


def test_unbiasedness_rejects_unknown_quantizer():
    cb = generate(CodebookMethod.SOB, 4, 4, seed=0)
    for name in ("nearest", "identity"):  # parsed as a Variant, as compress does
        with pytest.raises(ValueError, match="is not a valid Variant"):
            check_unbiasedness(name, cb, np.ones(4), 10, Stream(0))
    for quantizer in ("unbiased", "greedy"):
        with pytest.raises(InvalidGradient):
            check_unbiasedness(quantizer, cb, np.ones((2, 4)), 10, Stream(0))


# ---------------------------------------------------------------------------
# pseudo-norm rounding


def test_pseudo_norm_z_within_band():
    st = Stream(7)
    for i, (u, s) in enumerate([(0.3, 4), (0.71, 63), (-1.9, 2), (2.49, 5)]):
        z = pseudo_norm_z(u, -2.5, 2.5, s, 50_000, st.derive(i))
        assert abs(z) <= 4.0, (u, s, z)


def test_pseudo_norm_z_exact_on_grid_points():
    # u exactly on a grid point decodes deterministically
    assert pseudo_norm_z(0.5, 0.0, 1.0, 2, 1000, Stream(8)) == 0.0
    assert pseudo_norm_z(0.0, 0.0, 1.0, 4, 1000, Stream(9)) == 0.0


def test_pseudo_norm_z_degenerate_interval():
    assert pseudo_norm_z(1.5, 1.5, 1.5, 7, 1000, Stream(10)) == 0.0


def test_pseudo_norm_z_clamps_into_interval():
    # a u outside [u_min, u_max] is measured against the nearest end, where
    # every draw decodes to that end exactly
    for u in (1.1, 1.0 + 5e-13, -0.1):
        assert pseudo_norm_z(u, 0.0, 1.0, 4, 1000, Stream(11)) == 0.0


# ---------------------------------------------------------------------------
# variance bound


def test_variance_bound_formula_terms():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=11)
    base = (32 // 8) * 16 * (1.0 / cb.sigma_min ** 2) * 8.0
    r = check_variance_bound(cb, d=32, s=7, n_draws=200, rng=Stream(12))
    assert r.bound_loose == pytest.approx(base * (1 + 4 / 7))
    assert r.bound >= base  # tight bound adds a nonnegative range term
    assert r.passed
    assert r.empirical <= r.bound + r.mc_slack


def test_variance_bound_exact_norm_mode_has_no_range_term():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=13)
    base = (16 // 8) * 16 * (1.0 / cb.sigma_min ** 2) * 8.0
    r = check_variance_bound(cb, d=16, s=0, n_draws=200, rng=Stream(14))
    assert r.bound == pytest.approx(base)
    assert r.bound_loose == pytest.approx(base)
    assert r.passed


def test_variance_bound_ragged_d_counts_every_segment():
    # d = 17 on d' = 16 is two segments, each carrying a rounded pseudo-norm
    cb = generate(CodebookMethod.RANDOM_ROTATION, 16, 16, seed=15)
    r = check_variance_bound(cb, d=17, s=7, n_draws=1, rng=Stream(16))
    st = Stream(16).derive(0)
    cg = compress(st.derive("g").normals(17), cb, 7, Variant.UNBIASED, st.derive("q"))
    assert r.bound == vq_bound(17, cb, 7, 16.0, cg.u_max - cg.u_min)
    assert r.bound_loose == pytest.approx(2 * 16 / cb.sigma_min ** 2 * 16.0 * (1 + 4 / 7))


def test_variance_bound_passes_across_levels():
    cb = generate(CodebookMethod.RANDOM_ROTATION, 8, 8, seed=15)
    for s in (1, 4, 63):
        r = check_variance_bound(cb, d=24, s=s, n_draws=300, rng=Stream(16).derive(s))
        assert r.passed, (s, r)


# ---------------------------------------------------------------------------
# alpha floor and greedy dominance


def test_alpha_trivial_codebook_is_tight():
    # d'=1, m=1: every unit gradient is +-the single codeword, so the
    # squared correlation and the floor are both exactly 1
    cb = generate(CodebookMethod.SOB, 1, 1, seed=0)
    res = check_alpha(cb, 100, Stream(17))
    assert res.worst == 1.0
    assert res.floor == 1.0
    assert res.passed


def test_alpha_floor_all_methods():
    for method in CodebookMethod.SOB, CodebookMethod.RANDOM_ROTATION:
        res = check_alpha(generate(method, 8, 8, seed=18), 2000, Stream(19))
        assert res.passed
        assert res.floor == pytest.approx(1 / 8)
    for method in CodebookMethod.RANDOM_GAUSSIAN, CodebookMethod.KMEANS_GAUSSIAN:
        cb = generate(method, 8, 16, seed=18)
        res = check_alpha(cb, 2000, Stream(19))
        assert res.passed
        assert res.floor == pytest.approx(cb.sigma_min ** 2 / 16)


def test_beta_correlation_by_hand():
    cb = Codebook.from_columns(np.eye(3))
    assert beta_correlation(np.array([0.2, -0.9, 0.5]), cb) == pytest.approx(0.9)


def test_row_helpers_take_a_batch_of_rows():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 6, 12, seed=20)
    rows = Stream(44).derive(np.arange(300)).normals(6)
    for helper in (beta_correlation, greedy_residual_sq, unbiased_expected_residual_sq):
        batch = helper(rows, cb)
        assert batch.shape == (300,)
        assert batch.tolist() == [helper(g, cb) for g in rows]


def test_greedy_residual_matches_brute_force():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 6, 12, seed=20)
    for i in range(50):
        g = Stream(21).derive(i).normals(6)
        [[idx]], [[u]] = _select(g[None], cb)
        brute = float(np.sum((g - u * cb.columns[:, idx]) ** 2))
        assert greedy_residual_sq(g, cb) == pytest.approx(brute, abs=1e-10)


def test_unbiased_residual_matches_enumeration():
    # exact oracle: E||g~ - g||^2 = sum_j ptilde_j ||u_j c_j - g||^2
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 5, 10, seed=22)
    for i in range(50):
        g = Stream(23).derive(i).normals(5)
        p = cb.pinv @ g
        l1 = np.abs(p).sum()
        exact = sum((abs(p[j]) / l1)
                    * float(np.sum((math.copysign(l1, p[j]) * cb.columns[:, j] - g) ** 2))
                    for j in range(10))
        assert unbiased_expected_residual_sq(g, cb) == pytest.approx(exact, abs=1e-9)


def test_greedy_dominates_unbiased_per_draw():
    # exact inequality, checked without tolerance on every single draw
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 24, seed=24)
    for i in range(300):
        g = Stream(25).derive(i).normals(8)
        assert greedy_residual_sq(g, cb) <= unbiased_expected_residual_sq(g, cb)


def test_batched_validators_hold_no_draws_x_codewords_matrix():
    import tracemalloc

    # 20,000 draws x 256 codewords of f64 would be 39 MiB per temporary
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 16, 256, seed=2)
    for validator in (check_alpha, greedy_vs_unbiased_mse):
        tracemalloc.start()
        try:
            validator(cb, 20_000, Stream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, (validator.__name__, peak)


def test_greedy_vs_unbiased_mse_means():
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 24, seed=26)
    mse_g, mse_u = greedy_vs_unbiased_mse(cb, 500, Stream(27))
    assert mse_g < mse_u
    assert mse_g > 0


# ---------------------------------------------------------------------------
# draw counts


class _NoDraws:
    """A stream stand-in that fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the stream ({name}) before checking n_draws")


@pytest.mark.parametrize("n_draws", [0, -1])
@pytest.mark.parametrize("validator", [
    lambda cb, n: check_alpha(cb, n, _NoDraws()),
    lambda cb, n: greedy_vs_unbiased_mse(cb, n, _NoDraws()),
    lambda cb, n: check_variance_bound(cb, 8, 3, n, _NoDraws()),
    lambda cb, n: check_unbiasedness("unbiased", cb, np.ones(4), n, _NoDraws()),
    lambda cb, n: pseudo_norm_z(0.3, 0.0, 1.0, 4, n, _NoDraws()),
    lambda cb, n: variance_vs_clients(cb, np.ones(4), [1], n, _NoDraws()),
], ids=["alpha", "mse", "variance-bound", "unbiasedness", "pseudo-norm-z", "vs-clients"])
def test_validators_reject_fewer_than_one_draw(validator, n_draws):
    with pytest.raises(ValueError, match=rf"^n_(draws|trials): must be >= 1, got {n_draws}$"):
        validator(generate(CodebookMethod.SOB, 4, 4, seed=0), n_draws)


# ---------------------------------------------------------------------------
# client averaging


def test_variance_vs_clients_scales_inversely():
    cb = generate(CodebookMethod.RANDOM_ROTATION, 8, 8, seed=28)
    g = Stream(29).normals(8)
    var = variance_vs_clients(cb, g, [1, 10, 100], n_trials=3000, rng=Stream(30))
    assert var[1] / (10 * var[10]) == pytest.approx(1.0, abs=0.5)
    assert var[1] / (100 * var[100]) == pytest.approx(1.0, abs=0.5)


def test_variance_vs_clients_single_matches_closed_form():
    cb = generate(CodebookMethod.RANDOM_ROTATION, 8, 8, seed=31)
    g = Stream(32).normals(8)
    var = variance_vs_clients(cb, g, [1], n_trials=20_000, rng=Stream(33))
    assert var[1] == pytest.approx(unbiased_expected_residual_sq(g, cb), rel=0.1)


def test_variance_vs_clients_rejects_wrong_length():
    cb = generate(CodebookMethod.SOB, 8, 8, seed=0)
    with pytest.raises(ValueError):
        variance_vs_clients(cb, np.ones(5), [1], 10, Stream(0))


def test_validators_select_through_select_alone(monkeypatch):
    # no validator reaches the one-segment wrappers of the selection rule
    def refuse(*args, **kwargs):
        raise AssertionError("a one-segment selection wrapper was called")

    for name in ("sample_unbiased_codes", "quantize_greedy"):
        monkeypatch.setattr(quantizers, name, refuse)
        assert not hasattr(metrics, name)
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=34)
    g = Stream(35).normals(21)
    for variant in Variant:
        assert check_unbiasedness(variant, cb, g, 50, Stream(36)).shape == (21,)
    assert set(variance_vs_clients(cb, g[:8], [1, 4], 10, Stream(37))) == {1, 4}
    assert run_validator_suite(0)["all_passed"]


# ---------------------------------------------------------------------------
# KS machinery


def test_ks_identical_samples():
    a = Stream(34).normals(500)
    assert ks_two_sample(a, a.copy()) == 0.0


def test_ks_disjoint_samples():
    assert ks_two_sample(np.arange(5.0), np.arange(5.0) + 100) == 1.0


def test_ks_threshold_value():
    # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.6276; equal sizes n -> c*sqrt(2/n)
    expect = math.sqrt(-0.5 * math.log(0.005)) * math.sqrt(2 / 1000)
    assert ks_threshold(1000, 1000) == pytest.approx(expect)


def test_ks_detects_shift_and_accepts_same_law():
    a = Stream(35).uniforms(2000)
    b = Stream(36).uniforms(2000)
    assert ks_two_sample(a, b + 0.5) > ks_threshold(2000, 2000)
    assert ks_two_sample(a, b) < ks_threshold(2000, 2000)


# ---------------------------------------------------------------------------
# the bundled validator battery


def test_validator_suite_all_green_and_deterministic():
    report = run_validator_suite(seed=0)
    assert report["schema_version"] == 1
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["unbiased-z-scores", "greedy-bias-detected",
                     "pseudo-norm-z-scores", "variance-bound", "alpha-floor",
                     "beta-distribution-ks", "compression-ratios",
                     "greedy-beats-unbiased-mse"]
    assert all(c["passed"] for c in report["checks"])
    assert run_validator_suite(seed=0) == report

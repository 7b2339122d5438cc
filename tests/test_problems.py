import numpy as np
import pytest

from hsq.errors import InvalidShape
from hsq.problems import (Logistic, Quadratic, TinyMLP, finite_diff_check,
                          estimate_second_moment)
from hsq.rng import Stream


# ---------------------------------------------------------------------------
# gradient correctness against central differences


def test_quadratic_gradient_matches_finite_differences():
    p = Quadratic(dim=8, seed=0)
    x = Stream(1).normals(8)
    assert finite_diff_check(p, x) <= 1e-5


def test_logistic_gradient_matches_finite_differences():
    p = Logistic(dim=10, seed=0)
    x = 0.5 * Stream(2).normals(10)
    assert finite_diff_check(p, x) <= 1e-4


def test_mlp_gradient_matches_finite_differences():
    p = TinyMLP(seed=0, num_samples=64)
    x = p.x0 + 0.1 * Stream(3).normals(p.dim)
    assert finite_diff_check(p, x, h=1e-4) <= 1e-3


def test_stochastic_gradient_matches_finite_differences_per_sample():
    p = Quadratic(dim=5, seed=1)
    x = Stream(4).normals(5)
    # a single-sample gradient is the gradient of that sample's own loss
    row = p.A[3]
    expected = row * (row @ x - p.b[3])
    np.testing.assert_allclose(p.stochastic_gradient(x, np.array([3])), expected,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# optima and constants


def test_quadratic_optimum():
    p = Quadratic(dim=8, seed=2)
    assert p.objective(p.x_star) == pytest.approx(0.0, abs=1e-20)
    assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-10
    assert p.f_star == 0.0
    assert p.radius == pytest.approx(np.linalg.norm(p.x_star))


def test_quadratic_smoothness_is_largest_curvature():
    p = Quadratic(dim=6, seed=3)
    hessian = p.A.T @ p.A / p.num_samples
    assert p.smoothness == pytest.approx(np.linalg.eigvalsh(hessian)[-1])
    # gradient is hessian * (x - x*) exactly
    x = Stream(5).normals(6)
    np.testing.assert_allclose(p.gradient(x), hessian @ (x - p.x_star), atol=1e-10)


def test_logistic_optimum_is_stationary():
    p = Logistic(dim=10, seed=4)
    assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-8
    # f* is a true minimum: random perturbations only increase the loss
    for i in range(5):
        assert p.objective(p.x_star + 0.1 * Stream(6).derive(i).normals(10)) > p.f_star


def test_logistic_separable_at_optimum():
    p = Logistic(dim=10, seed=5)
    assert p.accuracy(p.x_star) == 1.0


def test_logistic_objective_stable_for_large_parameters():
    p = Logistic(dim=4, seed=6)
    val = p.objective(1e4 * np.ones(4))
    assert np.isfinite(val)


def test_mlp_perfectly_separable_blobs():
    p = TinyMLP(seed=1, num_samples=128)
    assert p.f_star == 0.0
    # blob centers are far apart relative to spread, so a trained-ish
    # network is not needed to verify label structure; just check counts
    assert p.labels.shape == (128,)
    assert set(np.unique(p.labels)) == {0, 1}


def test_convexity_inequality_random_pairs():
    p = Logistic(dim=6, seed=7)
    st = Stream(8)
    for i in range(20):
        a = st.derive("a", i).normals(6)
        b = st.derive("b", i).normals(6)
        # f(b) >= f(a) + <grad f(a), b - a>
        assert p.objective(b) >= (p.objective(a)
                                  + p.gradient(a) @ (b - a) - 1e-10)


def test_full_gradient_is_mean_of_per_sample_gradients():
    for p in (Quadratic(dim=4, seed=9), Logistic(dim=4, seed=9),
              TinyMLP(seed=9, num_samples=32)):
        x = Stream(10).normals(p.dim) * 0.3
        mean = np.mean([p.stochastic_gradient(x, np.array([i]))
                        for i in range(p.num_samples)], axis=0)
        np.testing.assert_allclose(p.gradient(x), mean, atol=1e-12)


# ---------------------------------------------------------------------------
# validation


def test_problems_reject_wrong_shape():
    p = Quadratic(dim=4, seed=0)
    with pytest.raises(InvalidShape):
        p.objective(np.zeros(5))
    with pytest.raises(InvalidShape):
        p.gradient(np.zeros((4, 1)))


def test_quadratic_rejects_underdetermined():
    with pytest.raises(ValueError):
        Quadratic(dim=8, seed=0, num_samples=4)


def test_finite_diff_check_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_check(Quadratic(dim=2, seed=0), np.zeros(2), h=0.0)


# ---------------------------------------------------------------------------
# second-moment estimation


def test_second_moment_full_batch_is_exact_segment_max():
    p = Quadratic(dim=8, seed=11)
    x = Stream(12).normals(8)
    g = p.gradient(x)
    expected = max(float(g[:4] @ g[:4]), float(g[4:] @ g[4:]))
    got = estimate_second_moment(p, [x], d_prime=4, batch_size=p.num_samples)
    assert got == pytest.approx(expected)


def test_second_moment_single_sample_enumeration():
    p = Quadratic(dim=4, seed=13)
    x = Stream(14).normals(4)
    # oracle: direct enumeration over samples, one segment
    exact = np.mean([np.sum(p.stochastic_gradient(x, np.array([i])) ** 2)
                     for i in range(p.num_samples)])
    got = estimate_second_moment(p, [x], d_prime=4, batch_size=1)
    assert got == pytest.approx(exact)


def test_second_moment_quadratic_analytic():
    # E||a_i (a_i^T x - b_i)||^2 over uniformly drawn rows, by hand
    p = Quadratic(dim=3, seed=15)
    x = Stream(16).normals(3)
    residuals = p.A @ x - p.b
    exact = np.mean(np.sum(p.A ** 2, axis=1) * residuals ** 2)
    got = estimate_second_moment(p, [x], d_prime=3, batch_size=1)
    assert got == pytest.approx(exact)


def test_second_moment_minibatch_between_extremes():
    p = Quadratic(dim=4, seed=17)
    x = Stream(18).normals(4)
    single = estimate_second_moment(p, [x], d_prime=4, batch_size=1)
    full = estimate_second_moment(p, [x], d_prime=4, batch_size=p.num_samples)
    mid = estimate_second_moment(p, [x], d_prime=4, batch_size=4,
                                 rng=Stream(19), n_draws=3000)
    # averaging shrinks the second moment toward the full-batch value
    assert full <= mid <= single
    with pytest.raises(ValueError):
        estimate_second_moment(p, [x], d_prime=4, batch_size=4)  # rng missing


def test_second_moment_takes_max_over_points():
    p = Quadratic(dim=4, seed=20)
    x_small = p.x_star  # zero gradient everywhere
    x_big = p.x_star + 10 * np.ones(4)
    lo = estimate_second_moment(p, [x_small], d_prime=4, batch_size=1)
    both = estimate_second_moment(p, [x_small, x_big], d_prime=4, batch_size=1)
    hi = estimate_second_moment(p, [x_big], d_prime=4, batch_size=1)
    assert lo <= 1e-20
    assert both == pytest.approx(hi)


def test_second_moment_rejects_bad_segment():
    p = Quadratic(dim=4, seed=21)
    with pytest.raises(ValueError):
        estimate_second_moment(p, [p.x0], d_prime=0)

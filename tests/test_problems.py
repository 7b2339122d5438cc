import hashlib

import numpy as np
import pytest

from conftest import traced_peak
from hsq.errors import InvalidShape
from hsq.fedsim import FedConfig, LrSchedule, QuantizerScheme, run
from hsq.problems import LOGISTIC_RIDGE, Logistic, Quadratic, TinyMLP, estimate_second_moment
from hsq.rng import Stream


def finite_diff_check(p, x, h=1e-5):
    """Max relative error between central differences and the analytic gradient."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    analytic = p.gradient(x)
    worst = 0.0
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = h
        fd = (p.objective(x + e) - p.objective(x - e)) / (2 * h)
        worst = max(worst, abs(fd - analytic[i]) / (abs(analytic[i]) + 1e-12))
    return worst


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


def _constructor_constants(p):
    """Reference (x*, f*, L, R) in straight-line arithmetic: Newton's method from
    x0 = 0 and the Gram matrix's top eigenvalue for Logistic, the planted x* and
    the top eigenvalue for Quadratic."""
    x0 = np.zeros(p.dim)
    if isinstance(p, Quadratic):
        x_star, f_star = p.x_star, 0.0
        smoothness = float(np.linalg.eigvalsh(p.A.T @ p.A)[-1]) / p.num_samples
    else:
        x_star = x0.copy()
        for _ in range(50):
            z = p.y * (p.X @ x_star)
            sig = 1.0 / (1.0 + np.exp(z))
            grad = p.X.T @ (-p.y * sig) / p.num_samples + LOGISTIC_RIDGE * x_star
            w = sig * (1.0 - sig)
            hess = (p.X.T * w) @ p.X / p.num_samples
            hess[np.diag_indices_from(hess)] += LOGISTIC_RIDGE
            step = np.linalg.solve(hess, grad)
            x_star -= step
            if np.linalg.norm(step) < 1e-13:
                break
        z = -p.y * (p.X @ x_star)
        loss = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        f_star = float(loss.mean()) + 0.5 * LOGISTIC_RIDGE * float(x_star @ x_star)
        gram_eigs = np.linalg.eigvalsh(p.X.T @ p.X)
        smoothness = float(gram_eigs[-1]) / (4 * p.num_samples) + LOGISTIC_RIDGE
    return x_star, f_star, smoothness, float(np.linalg.norm(x0 - x_star))


@pytest.mark.parametrize("build", [
    lambda: Logistic(48, 5, 200),  # the benchmark's sim-logistic-hsq problem
    lambda: Logistic(10, 4), lambda: Logistic(64, 3, num_samples=203),
    lambda: Quadratic(64, 7), lambda: Quadratic(6, 3, num_samples=9),
])
def test_constants_read_on_demand_match_the_constructor_arithmetic(build):
    p = build()
    x_star, f_star, smoothness, radius = _constructor_constants(p)
    assert p.x_star.tobytes() == x_star.tobytes()
    assert (p.f_star, p.smoothness, p.radius) == (f_star, smoothness, radius)


def test_building_and_running_a_problem_needs_no_solve_or_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a problem's constants were computed without being read")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for p in (Logistic(48, 5, 200), Quadratic(16, 5)):
        cfg = FedConfig(num_clients=4, clients_per_round=2, rounds=3, local_batch=2,
                        scheme=QuantizerScheme(name="qsgd", s=15), lr=LrSchedule(eta=0.1),
                        seed=0)
        assert len(run(cfg, p).logs) == 3


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


# SHA-256 over TinyMLP's objective, gradient, stochastic gradients (one
# sample, a repeated index, 16 samples) and accuracy at three points per
# layer shape, recorded before the oracles shared one forward pass. A
# rewrite of the forward or backward pass must leave these unchanged.
_MLP_PINS = {
    (16, 64, 64, 4): "1df6dce96228eeff29a79ad1ea95bb93f1f12667dd07a8fa4fbca766c0455ea5",
    (2, 8, 2): "982baa20b60a6dc75a94aa4457b19fc6d06a9dab220b94c618131f32ff04778c",
    (5, 3): "ef32298a3c5f3dd7a2c8f37be5c7926d59842c8dc27ab4373bd9ceb13f88b99c",
    (7, 33, 9, 11, 3): "6d732966f0b13828571187b47427a5d93c7ee5abb55103a487196b66333aa16f",
}


@pytest.mark.parametrize("sizes", sorted(_MLP_PINS))
def test_mlp_oracles_pinned(sizes):
    p = TinyMLP(sizes, seed=len(sizes), num_samples=40)
    st = Stream(30).derive(*sizes)
    batches = (np.array([7]), np.array([3, 3, 11]),
               st.derive("batch").choice_without_replacement(p.num_samples, 16))
    h = hashlib.sha256()
    for x in (p.x0, p.x0 + 0.3 * st.derive("near").normals(p.dim),
              2.0 * st.derive("far").normals(p.dim)):
        h.update(np.float64(p.objective(x)).tobytes())
        h.update(p.gradient(x).tobytes())
        for batch in batches:
            h.update(p.stochastic_gradient(x, batch).tobytes())
        h.update(np.float64(p.accuracy(x)).tobytes())
    assert h.hexdigest() == _MLP_PINS[sizes]


def _problems():
    return (Quadratic(dim=6, seed=22), Logistic(dim=6, seed=22),
            TinyMLP((5, 7, 6, 3), seed=22, num_samples=24))


def test_loss_and_gradient_is_objective_and_gradient():
    for p in _problems():
        for x in (p.x0, 0.7 * Stream(23).normals(p.dim)):
            loss, grad = p.loss_and_gradient(x)
            assert np.float64(loss).tobytes() == np.float64(p.objective(x)).tobytes()
            assert grad.tobytes() == p.gradient(x).tobytes()


def test_oracles_do_not_write_their_inputs():
    for p in _problems():
        data = {k: v.copy() for k, v in vars(p).items() if isinstance(v, np.ndarray)}
        x = 0.7 * Stream(24).normals(p.dim)
        batch = np.array([4, 1, 1, 9])
        x_before, batch_before = x.copy(), batch.copy()
        p.objective(x)
        p.gradient(x)
        p.loss_and_gradient(x)
        p.stochastic_gradient(x, batch)
        p.stochastic_gradient(x, np.arange(p.num_samples))
        if hasattr(p, "accuracy"):
            p.accuracy(x)
        assert x.tobytes() == x_before.tobytes() and np.array_equal(batch, batch_before)
        for k, v in data.items():
            assert getattr(p, k).tobytes() == v.tobytes(), (p.kind, k)


def test_mlp_loss_and_gradient_peak_memory():
    # each (2048 x 64) f64 activation or temporary takes 1 MiB
    p = TinyMLP((16, 64, 64, 4), seed=5, num_samples=2048)
    x = p.x0 + 0.1 * Stream(25).normals(p.dim)
    peak = traced_peak(p.loss_and_gradient, x)
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("sizes", sorted(_MLP_PINS))
def test_mlp_scratch_reuse_is_invisible(sizes):
    # the full-batch oracles reuse the instance's buffers: in any call order,
    # with mini-batch calls in between, each result is a fresh instance's,
    # and no later call changes a result already returned
    def make():
        return TinyMLP(sizes, seed=len(sizes), num_samples=40)

    p = make()
    st = Stream(31).derive(*sizes)
    points = (p.x0, p.x0 + 0.3 * st.derive("near").normals(p.dim),
              2.0 * st.derive("far").normals(p.dim))
    batch = st.derive("batch").choice_without_replacement(p.num_samples, 16)
    oracles = {
        "objective": lambda q, x: np.float64(q.objective(x)),
        "gradient": lambda q, x: q.gradient(x),
        "loss_and_gradient": lambda q, x: q.loss_and_gradient(x),
        "accuracy": lambda q, x: np.float64(q.accuracy(x)),
        "one sample": lambda q, x: q.stochastic_gradient(x, np.array([7])),
        "mini-batch": lambda q, x: q.stochastic_gradient(x, batch),
    }
    calls = [(name, k) for name in oracles for k in range(len(points))] * 2
    order = np.random.default_rng(len(sizes)).permutation(len(calls))
    returned = []
    for name, k in (calls[i] for i in order):
        got = oracles[name](p, points[k])
        want = oracles[name](make(), points[k])
        returned.append((got, want))
        for g, w in returned:
            if isinstance(g, tuple):
                assert np.float64(g[0]).tobytes() == np.float64(w[0]).tobytes()
                assert g[1].tobytes() == w[1].tobytes()
            else:
                assert g.tobytes() == w.tobytes(), name


def test_mlp_loss_and_gradient_reuses_its_buffers():
    # the first full-batch call makes the buffers; later calls allocate only
    # (2048 x 4) logit temporaries and the gradient
    p = TinyMLP((16, 64, 64, 4), seed=5, num_samples=2048)
    x = p.x0 + 0.1 * Stream(25).normals(p.dim)
    p.loss_and_gradient(x)
    peak = traced_peak(lambda: p.loss_and_gradient(x + 0.1))
    assert peak < 2 ** 19, peak


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


@pytest.mark.parametrize("num_samples", [0, -3])
def test_tinymlp_rejects_nonpositive_sample_count(num_samples):
    with pytest.raises(ValueError, match="^num_samples: must be >= 1"):
        TinyMLP((2, 8, 2), 0, num_samples=num_samples)


@pytest.mark.parametrize("build,field", [
    (lambda: Quadratic(2.5, 0), "dim"), (lambda: Quadratic(True, 0), "dim"),
    (lambda: Quadratic(4, 1.5), "seed"), (lambda: Quadratic(4, -1), "seed"),
    (lambda: Logistic(4, 0, num_samples=10.0), "num_samples"),
    (lambda: Logistic(4, 2 ** 64), "seed"),
    (lambda: TinyMLP((2, 2.5, 2), 0), "layer_sizes"),
    (lambda: TinyMLP((2, True, 2), 0), "layer_sizes"),
    (lambda: TinyMLP((2, 8, 2), 0.0), "seed"),
], ids=["float-dim", "bool-dim", "float-seed", "negative-seed", "float-samples",
        "seed-2**64", "float-layer", "bool-layer", "float-mlp-seed"])
def test_problems_refuse_arguments_by_the_integer_and_seed_rules(build, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        build()


def test_problems_take_numpy_integers():
    p = Quadratic(np.int64(4), np.uint64(3), num_samples=np.int32(16))
    assert (p.dim, p.num_samples) == (4, 16)
    assert TinyMLP((np.int64(2), 3, np.uint8(2)), np.int64(0)).dim == 17


def test_quadratic_reports_its_sample_floor():
    with pytest.raises(ValueError, match=r"^num_samples: must be >= dim = 4, got 3$"):
        Quadratic(4, 0, num_samples=3)


def test_finite_diff_check_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_check(Quadratic(dim=2, seed=0), np.zeros(2), h=0.0)


# ---------------------------------------------------------------------------
# second-moment estimation


def test_second_moment_single_sample_enumeration():
    p = Quadratic(dim=4, seed=13)
    x = Stream(14).normals(4)
    # oracle: direct enumeration over samples, one segment
    exact = np.mean([np.sum(p.stochastic_gradient(x, np.array([i])) ** 2)
                     for i in range(p.num_samples)])
    got = estimate_second_moment(p, [x], d_prime=4)
    assert got == pytest.approx(exact)


def test_second_moment_quadratic_analytic():
    # E||a_i (a_i^T x - b_i)||^2 over uniformly drawn rows, by hand
    p = Quadratic(dim=3, seed=15)
    x = Stream(16).normals(3)
    residuals = p.A @ x - p.b
    exact = np.mean(np.sum(p.A ** 2, axis=1) * residuals ** 2)
    got = estimate_second_moment(p, [x], d_prime=3)
    assert got == pytest.approx(exact)


def test_second_moment_takes_max_over_points():
    p = Quadratic(dim=4, seed=20)
    x_small = p.x_star  # zero gradient everywhere
    x_big = p.x_star + 10 * np.ones(4)
    lo = estimate_second_moment(p, [x_small], d_prime=4)
    both = estimate_second_moment(p, [x_small, x_big], d_prime=4)
    hi = estimate_second_moment(p, [x_big], d_prime=4)
    assert lo <= 1e-20
    assert both == pytest.approx(hi)


def test_second_moment_rejects_bad_segment():
    p = Quadratic(dim=4, seed=21)
    with pytest.raises(ValueError):
        estimate_second_moment(p, [p.x0], d_prime=0)

"""Statistical validators for the quantizer's claimed properties.

Each check here turns one mathematical property of the compression
pipeline into a seeded Monte-Carlo (or exact) measurement:

* estimator bias, via per-coordinate z-scores;
* the second-moment bound on quantized gradients;
* the directional-quality floor sigma_min(C)^2 / m;
* greedy-vs-probabilistic quantization error, using the closed forms
  for both (greedy residual ||g||^2 - beta^2; probabilistic expected
  residual ||p||_1^2 - ||g||^2);
* variance decay of an n-client average.

Acceptance bands are 4 sigma unless a property is exact, in which case
no tolerance is applied at all. Everything is driven by explicit
Stream seeds, so reruns give identical verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .errors import out_of_range, refuse_argument
from .fedsim import QuantizerScheme, compression_ratio, vq_bound
from .quantizers import (Variant, _blocks, _check_gradient, _compress_rows, _decoded, _project,
                         _select, decode_pseudo_norm, round_in_cell, rounding_cell,
                         segment_gradient)
from .rng import Stream

KS_ALPHA = 0.01  # significance level of ks_threshold


def _z_from_moments(mean: np.ndarray, ex2: np.ndarray, target: np.ndarray,
                    n: int) -> np.ndarray:
    """z = (mean - target) / (sigma_hat / sqrt(n)), with the deterministic
    convention sigma_hat = 0 -> z = 0 on exact agreement, +-inf otherwise."""
    var = np.maximum(ex2 - mean ** 2, 0.0)
    sd = np.sqrt(var)
    diff = mean - target
    z = np.zeros_like(diff)
    live = sd > 0
    z[live] = diff[live] * math.sqrt(n) / sd[live]
    dead = ~live & (diff != 0.0)
    z[dead] = np.copysign(np.inf, diff[dead])
    return z


def check_unbiasedness(variant: Variant | str, cb: Codebook, g: np.ndarray, n_draws: int,
                      rng: Stream) -> np.ndarray:
    """Per-coordinate z-scores of the decoded mean against g itself.

    n_draws independent quantizations of g are decoded and averaged;
    for an unbiased scheme every |z| should stay within the usual CLT
    bands (4 is the house limit). The greedy path is deterministic, so
    its z-scores are 0 where the decode is exact and +-inf where it is
    not — which is precisely how its bias shows up.
    """
    variant = Variant(variant)
    refuse_argument(out_of_range("n_draws", n_draws, 1))
    g = _check_gradient(g)
    segments = segment_gradient(g, cb.dim)
    if variant is Variant.GREEDY:
        idx, u = _select(segments, cb)
        diff = _decoded(idx[:, 0], u[:, 0], cb, g.shape[0]) - g
        return np.where(diff != 0.0, np.copysign(np.inf, diff), 0.0)
    z = np.empty(segments.shape)
    # segment j draws from rng.derive(j), in blocks whose rows x draws and rows x d' x m
    # temporaries fit _select's block
    for at in _blocks(len(segments), max(n_draws, cb.dim) * cb.count):
        block = segments[at]
        idx, u = _select(block, cb, rng.derive(np.arange(len(segments))[at]).uniforms(n_draws))
        flat = (idx + np.arange(len(block))[:, None] * cb.count).ravel()  # row r: r * m + i
        counts = np.bincount(flat, minlength=len(block) * cb.count).reshape(-1, cb.count) / n_draws
        # a draw's value is determined by its index (u_j = sign(p_j)*l1),
        # so tabulate the signed pseudo-norm per index from the draws
        per_index_u = np.zeros(counts.shape)
        per_index_u.reshape(-1)[flat] = u.reshape(-1)
        vals = cb.columns * per_index_u[:, None, :]  # column j of row r = u_j * c_j
        z[at] = _z_from_moments(_project(vals, counts), _project(vals ** 2, counts), block,
                                n_draws)
    return z.ravel()[:g.shape[0]]


def pseudo_norm_z(u: float, u_min: float, u_max: float, s: int, n_draws: int,
                  rng: Stream) -> float:
    """z-score of the decoded stochastic-rounding mean against u.

    Draws n_draws roundings from the grid cell of u at once;
    deterministic cases (u on a grid point, or a degenerate interval)
    return 0.
    """
    refuse_argument(out_of_range("n_draws", n_draws, 1))
    uu = np.minimum(np.maximum(u, u_min), u_max)
    delta, k, p_lower = rounding_cell(uu, u_min, u_max, s)
    if delta == 0.0:
        return 0.0
    decoded = decode_pseudo_norm(round_in_cell(k, p_lower, rng.uniforms(n_draws)),
                                 u_min, u_max, s)
    mean, sd = float(decoded.mean()), float(decoded.std())
    if sd == 0.0:
        return 0.0 if mean == uu else math.inf
    return (mean - uu) * math.sqrt(n_draws) / sd


@dataclass
class VarianceBoundResult:
    empirical: float
    bound: float
    bound_loose: float
    mc_slack: float
    passed: bool


def check_variance_bound(cb: Codebook, d: int, s: int, n_draws: int,
                         rng: Stream) -> VarianceBoundResult:
    """Monte-Carlo E||g~||^2 against the second-moment bound.

    Gradients are N(0, I_d), so each segment's second moment is exactly
    B' = d'. The tight bound is fedsim.vq_bound with the realized worst
    pseudo-norm range charged to every draw,

        ceil(d/d') * (m * sigma1(pinv)^2 * B' + range^2 / s),

    and the loose variant replaces the range term by its own bound,
    giving ceil(d/d') * m * sigma1(pinv)^2 * B' * (1 + 4/s). Pass means the
    empirical moment stays below the tight bound plus 4 standard errors
    of the Monte-Carlo mean.
    """
    refuse_argument(out_of_range("n_draws", n_draws, 1))
    sq_norms = np.empty(n_draws)
    worst_range = 0.0
    # draw i's gradient and quantizer stream come from rng.derive(i), in blocks of draws
    for at in _blocks(n_draws, -(-d // cb.dim) * cb.count):
        st = rng.derive(np.arange(n_draws)[at])
        g = st.derive("g").normals(d)
        indices, norms, _, u_min, u_max = _compress_rows(g, cb, s, Variant.UNBIASED,
                                                         st.derive("q"))
        sq_norms[at] = np.sum(_decoded(indices, norms, cb, d) ** 2, axis=1)
        worst_range = max(worst_range, float(np.max(u_max - u_min)))
    empirical = float(sq_norms.mean())
    mc_slack = 4.0 * float(sq_norms.std()) / math.sqrt(n_draws)
    bound = vq_bound(d, cb, s, cb.dim, worst_range)
    loose_factor = (1.0 + 4.0 / s) if s >= 1 else 1.0
    bound_loose = vq_bound(d, cb, 0, cb.dim) * loose_factor  # s = 0: no norm term
    return VarianceBoundResult(empirical=empirical, bound=bound,
                               bound_loose=bound_loose, mc_slack=mc_slack,
                               passed=empirical <= bound + mc_slack)


@dataclass
class AlphaResult:
    worst: float
    floor: float
    passed: bool


def check_alpha(cb: Codebook, n_draws: int, rng: Stream) -> AlphaResult:
    """Worst squared correlation of the greedy direction over random unit g.

    The guarantee (g . Q(g))^2 >= sigma_min(C)^2 / m * ||g||^2 is an
    exact inequality, so the check applies no tolerance.
    """
    refuse_argument(out_of_range("n_draws", n_draws, 1))
    floor = cb.sigma_min ** 2 / cb.count
    worst = float(np.min(beta_correlation(_unit_rows(rng, n_draws, cb.dim), cb))) ** 2
    return AlphaResult(worst=worst, floor=floor, passed=worst >= floor)


def _unit_rows(rng: Stream, n: int, dim: int) -> np.ndarray:
    """n rows of dim normals, row i drawn from ``rng.derive(i)`` and scaled to unit norm."""
    g = rng.derive(np.arange(n)).normals(dim)
    return g / np.sqrt(_sq_norms(g))[:, None]


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """g . g for each row g, rounded like the 1-D ``g @ g``."""
    return _project(rows[:, None, :], rows)[:, 0]


def _per_row(g: np.ndarray, cb: Codebook, rule):
    """rule on the rows of g: a float for one row g, an array for a batch of rows.

    A batch goes through in the blocks of rows _select uses, so a rule's
    row x codeword temporaries stay bounded however many rows there are.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim == 1:
        return float(rule(g[None])[0])
    out = np.empty(len(g))
    for at in _blocks(len(g), cb.count):
        out[at] = rule(g[at])
    return out


def beta_correlation(g: np.ndarray, cb: Codebook):
    """max_c |g . c|, per row: how well the best codeword captures g's direction."""
    return _per_row(g, cb, lambda rows: np.max(np.abs(_project(cb.columns.T, rows)), axis=1))


# float_power squares by libm pow, as Python floats do; x * x can differ in the last bit
def greedy_residual_sq(g: np.ndarray, cb: Codebook):
    """Exact ||g - u c||^2 for the greedy choice, per row: ||g||^2 - beta^2."""
    return _per_row(g, cb, lambda rows:
                    _sq_norms(rows) - np.float_power(beta_correlation(rows, cb), 2))


def unbiased_expected_residual_sq(g: np.ndarray, cb: Codebook):
    """Closed-form E||g~ - g||^2 of the probabilistic path, per row: ||p||_1^2 - ||g||^2."""
    return _per_row(g, cb, lambda rows: np.float_power(
        np.abs(_project(cb.pinv, rows)).sum(axis=1), 2) - _sq_norms(rows))


def greedy_vs_unbiased_mse(cb: Codebook, n_draws: int, rng: Stream) -> tuple[float, float]:
    """Mean quantization MSE of both paths over random Gaussian segments.

    Uses the closed forms, so the comparison carries no Monte-Carlo
    noise; greedy is never worse on any single draw (a consequence of
    ||g||^2 <= beta * ||p||_1 and the AM-GM inequality), hence also on
    the mean.
    """
    refuse_argument(out_of_range("n_draws", n_draws, 1))
    g = rng.derive(np.arange(n_draws)).normals(cb.dim)
    # totals in draw order: cumsum adds term by term, np.sum pairwise
    return tuple(float(np.cumsum(residual_sq(g, cb))[-1]) / n_draws
                 for residual_sq in (greedy_residual_sq, unbiased_expected_residual_sq))


def variance_vs_clients(cb: Codebook, g: np.ndarray, n_values: list[int],
                        n_trials: int, rng: Stream) -> dict[int, float]:
    """Empirical E||mean of n quantizations - g||^2 for each n.

    Independent unbiased quantizations of the same segment g averaged
    over n clients; the total variance should fall like 1/n.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (cb.dim,):
        raise ValueError(f"g: must be one segment of length {cb.dim}, got shape {g.shape}")
    refuse_argument(out_of_range("n_trials", n_trials, 1))
    g = _check_gradient(g)
    out = {}
    for n in n_values:
        idx, u = _select(g[None], cb, rng.derive("n", n).uniforms(n * n_trials)[None])
        vals = cb.columns[:, idx[0]] * u[0]  # d' x (trials*n)
        means = vals.reshape(cb.dim, n_trials, n).mean(axis=2)
        out[n] = float(((means - g[:, None]) ** 2).sum(axis=0).mean())
    return out


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.shape[0]
    fb = np.searchsorted(b, grid, side="right") / b.shape[0]
    return float(np.max(np.abs(fa - fb)))


def ks_threshold(n_a: int, n_b: int) -> float:
    """Critical KS value c(alpha) * sqrt((n_a + n_b) / (n_a n_b)) at alpha = KS_ALPHA."""
    c = math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0))
    return c * math.sqrt((n_a + n_b) / (n_a * n_b))


def run_validator_suite(seed: int = 0) -> dict:
    """Seeded battery over every validator; the `analyze` report.

    Runs in seconds, so sample sizes are smaller than the dedicated
    test-suite versions of the same checks. Returns a JSON-ready dict
    with one entry per check plus an overall verdict.
    """
    from .codebook import SEEDED_METHODS, SQUARE_METHODS, CodebookMethod, generate

    root = Stream(seed).derive("validator-suite")
    checks = []

    def record(name: str, passed: bool, **measured) -> None:
        checks.append({"name": name, "passed": bool(passed), "measured": measured})

    books = {method: generate(method, 16, 16 if method in SQUARE_METHODS else 32, seed)
             for method in SEEDED_METHODS}
    ortho, gauss, sob = (books[method] for method in (
        CodebookMethod.RANDOM_ROTATION, CodebookMethod.RANDOM_GAUSSIAN, CodebookMethod.SOB))
    worst_z = 0.0
    for i, g in enumerate(root.derive("bias-g", np.arange(3)).normals(16)):
        z = check_unbiasedness("unbiased", ortho, g, 20_000, root.derive("bias-mc", i))
        worst_z = max(worst_z, float(np.max(np.abs(z))))
    record("unbiased-z-scores", worst_z <= 4.0, worst_z=worst_z, draws=20_000)

    g = root.derive("greedy-g").normals(16)
    z = check_unbiasedness("greedy", ortho, g, 10, root.derive("greedy-mc"))
    detected = bool(np.any(np.abs(z) > 4.0))
    record("greedy-bias-detected", detected, infinite_z=int(np.sum(np.isinf(z))))

    worst_norm_z = 0.0
    for i in range(20):
        st = root.derive("norm", i)
        bounds = np.sort(st.derive("ab").normals(2) * 5)
        u = bounds[0] + float(st.derive("u").uniforms(1)[0]) * (bounds[1] - bounds[0])
        s = int(1 + st.derive("s").uniforms(1)[0] * 63)
        zval = pseudo_norm_z(u, bounds[0], bounds[1], s, 20_000, st.derive("mc"))
        worst_norm_z = max(worst_norm_z, abs(zval))
    record("pseudo-norm-z-scores", worst_norm_z <= 4.0, worst_z=worst_norm_z)

    vb = check_variance_bound(gauss, 128, 7, 400, root.derive("varbound"))
    record("variance-bound", vb.passed, empirical=vb.empirical, bound=vb.bound,
           bound_loose=vb.bound_loose)

    alpha_ok, alpha_worst = True, {}
    for method, cb in books.items():
        res = check_alpha(cb, 2000, root.derive("alpha", method.value))
        alpha_ok &= res.passed
        alpha_worst[method.value] = {"worst": res.worst, "floor": res.floor}
    record("alpha-floor", alpha_ok, **alpha_worst)

    n_ks = 4000
    g = _unit_rows(root.derive("ks"), n_ks, 16)
    stat = ks_two_sample(beta_correlation(g, sob), beta_correlation(g, ortho))
    thresh = ks_threshold(n_ks, n_ks)
    record("beta-distribution-ks", stat <= thresh, statistic=stat, threshold=thresh)

    ratios = {
        "hsq-8": f"{compression_ratio(QuantizerScheme('hsq', 8, 256, 63)):.1f}",
        "hsq-16": f"{compression_ratio(QuantizerScheme('hsq', 16, 256, 63)):.1f}",
        "hsq-64": f"{compression_ratio(QuantizerScheme('hsq', 64, 256, 63)):.1f}",
        "terngrad": f"{compression_ratio(QuantizerScheme('terngrad')):.1f}",
        "signsgd": f"{compression_ratio(QuantizerScheme('signsgd')):.1f}",
    }
    expected = {"hsq-8": "18.3", "hsq-16": "36.6", "hsq-64": "146.3",
                "terngrad": "20.2", "signsgd": "32.0"}
    record("compression-ratios", ratios == expected, **ratios)

    mse_g, mse_u = greedy_vs_unbiased_mse(gauss, 500, root.derive("mse"))
    record("greedy-beats-unbiased-mse", mse_g < mse_u, greedy=mse_g, unbiased=mse_u)

    return {"schema_version": 1, "seed": seed, "checks": checks,
            "all_passed": all(c["passed"] for c in checks)}

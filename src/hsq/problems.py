"""Synthetic differentiable objectives with stochastic-gradient oracles.

Three problem families, all seeded and immutable after construction:

* Quadratic: least squares with a planted solution, so x*, f* = 0 and
  the smoothness constant are known exactly.
* Logistic: binary logistic regression on two separable Gaussian clouds
  (margin 0.5 along a random direction) plus a small ridge term; the
  optimum value is found once by Newton's method at construction.
* TinyMLP: a dense tanh network with softmax cross-entropy on Gaussian
  blobs, gradients by hand-rolled backprop. Non-convex; f* is the CE
  infimum 0, which is only a lower bound.

Objectives are means over samples, so the mean of the per-sample
gradients equals the full gradient identically and batch oracles are
unbiased for any index distribution that is uniform over samples.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShape
from .rng import Stream

LOGISTIC_RIDGE = 1e-3
LOGISTIC_MARGIN = 0.5


class Problem:
    """Common oracle surface; concrete families fill in the data."""

    kind: str
    dim: int
    num_samples: int

    def objective(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Full-batch gradient: mean of all per-sample gradients."""
        return self.stochastic_gradient(x, np.arange(self.num_samples))

    def stochastic_gradient(self, x: np.ndarray, batch_indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise InvalidShape(f"expected parameter vector of shape ({self.dim},), got {x.shape}")
        return x


class Quadratic(Problem):
    """f(x) = ||Ax - b||^2 / (2N) with b = A x_true, so f* = 0 at x_true.

    A is N(0,1) with N = 4*dim rows by default; the smoothness constant
    lambda_max(A^T A)/N and the initial distance R = ||x0 - x*|| are
    exact.
    """

    kind = "quadratic"

    def __init__(self, dim: int, seed: int, num_samples: int | None = None):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.num_samples = num_samples if num_samples is not None else 4 * dim
        if self.num_samples < dim:
            raise ValueError("need at least dim samples for a unique optimum")
        st = Stream(seed).derive("quadratic", dim, self.num_samples)
        self.A = st.derive("A").normal_matrix(self.num_samples, dim)
        self.x_star = st.derive("xstar").normals(dim)
        self.b = self.A @ self.x_star
        self.x0 = np.zeros(dim)
        self.f_star = 0.0
        gram_eigs = np.linalg.eigvalsh(self.A.T @ self.A)
        self.smoothness = float(gram_eigs[-1]) / self.num_samples
        self.radius = float(np.linalg.norm(self.x0 - self.x_star))

    def objective(self, x: np.ndarray) -> float:
        r = self.A @ self._check_x(x) - self.b
        return float(r @ r) / (2 * self.num_samples)

    def stochastic_gradient(self, x: np.ndarray, batch_indices: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        rows = self.A[batch_indices]
        return rows.T @ (rows @ x - self.b[batch_indices]) / len(batch_indices)


class Logistic(Problem):
    """Ridge-regularized logistic regression on separable Gaussian clouds.

    Samples are Gaussian with their projection onto a hidden unit
    direction forced to y * (margin/2 + |noise|), so the two classes sit
    a fixed margin apart and accuracy curves are stable across seeds.
    The ridge keeps the optimum finite; it is located by Newton's method
    at construction (the problem is strongly convex, so a handful of
    steps reaches machine precision).
    """

    kind = "logistic"

    def __init__(self, dim: int, seed: int, num_samples: int = 200,
                 margin: float = LOGISTIC_MARGIN, ridge: float = LOGISTIC_RIDGE):
        if dim < 1 or num_samples < 2:
            raise ValueError("need dim >= 1 and num_samples >= 2")
        self.dim = dim
        self.num_samples = num_samples
        self.ridge = ridge
        st = Stream(seed).derive("logistic", dim, num_samples)
        w_sep = st.derive("direction").normals(dim)
        w_sep /= np.linalg.norm(w_sep)
        y = np.where(st.derive("labels").uniforms(num_samples) < 0.5, -1.0, 1.0)
        X = st.derive("features").normal_matrix(num_samples, dim)
        offsets = margin / 2 + 0.3 * np.abs(st.derive("offsets").normals(num_samples))
        X += np.outer(y * offsets - X @ w_sep, w_sep)
        self.X, self.y = X, y
        self.x0 = np.zeros(dim)
        self.x_star = self._newton()
        self.f_star = self.objective(self.x_star)
        gram_eigs = np.linalg.eigvalsh(X.T @ X)
        self.smoothness = float(gram_eigs[-1]) / (4 * num_samples) + ridge
        self.radius = float(np.linalg.norm(self.x0 - self.x_star))

    def objective(self, x: np.ndarray) -> float:
        x = self._check_x(x)
        z = -self.y * (self.X @ x)
        # log(1 + e^z) = max(z, 0) + log1p(e^-|z|), stable for large |z|
        loss = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        return float(loss.mean()) + 0.5 * self.ridge * float(x @ x)

    def stochastic_gradient(self, x: np.ndarray, batch_indices: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        Xb, yb = self.X[batch_indices], self.y[batch_indices]
        sig = 1.0 / (1.0 + np.exp(yb * (Xb @ x)))
        return Xb.T @ (-yb * sig) / len(batch_indices) + self.ridge * x

    def accuracy(self, x: np.ndarray) -> float:
        pred = np.where(self.X @ self._check_x(x) >= 0, 1.0, -1.0)
        return float(np.mean(pred == self.y))

    def _newton(self) -> np.ndarray:
        x = self.x0.copy()
        for _ in range(50):
            z = self.y * (self.X @ x)
            sig = 1.0 / (1.0 + np.exp(z))
            grad = self.X.T @ (-self.y * sig) / self.num_samples + self.ridge * x
            w = sig * (1.0 - sig)
            hess = (self.X.T * w) @ self.X / self.num_samples
            hess[np.diag_indices_from(hess)] += self.ridge
            step = np.linalg.solve(hess, grad)
            x -= step
            if np.linalg.norm(step) < 1e-13:
                break
        return x


class TinyMLP(Problem):
    """Dense tanh network + softmax cross-entropy on Gaussian blobs.

    layer_sizes = (in, hidden..., classes); parameters live in one flat
    vector ordered (W1, b1, W2, b2, ...) with row-major weight blocks.
    The data is one blob per class with means spread on a sphere of
    radius 3. Cross-entropy is nonnegative, so f_star = 0 is a valid
    lower bound for gap accounting even though it is not attained.
    """

    kind = "tinymlp"

    def __init__(self, layer_sizes: tuple[int, ...] = (2, 8, 2), seed: int = 0,
                 num_samples: int = 256, blob_spread: float = 0.7):
        if len(layer_sizes) < 2 or min(layer_sizes) < 1:
            raise ValueError(f"layer_sizes needs >= 2 positive entries, got {layer_sizes}")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.num_classes = self.layer_sizes[-1]
        self.num_samples = num_samples
        self.dim = sum(o * i + o for i, o in zip(self.layer_sizes, self.layer_sizes[1:]))
        st = Stream(seed).derive("tinymlp", *self.layer_sizes, num_samples)

        in_dim = self.layer_sizes[0]
        means = st.derive("means").normal_matrix(self.num_classes, in_dim)
        means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
        self.labels = np.arange(num_samples) % self.num_classes
        self.X = means[self.labels] + blob_spread * st.derive("noise").normal_matrix(
            num_samples, in_dim)

        x0 = []
        for k, (i, o) in enumerate(zip(self.layer_sizes, self.layer_sizes[1:])):
            x0.append(st.derive("init", k).normals(o * i) * (0.5 / np.sqrt(i)))
            x0.append(np.zeros(o))
        self.x0 = np.concatenate(x0)
        self.f_star = 0.0

    def _unflatten(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        layers, pos = [], 0
        for i, o in zip(self.layer_sizes, self.layer_sizes[1:]):
            W = x[pos:pos + o * i].reshape(o, i)
            b = x[pos + o * i:pos + o * i + o]
            layers.append((W, b))
            pos += o * i + o
        return layers

    def _forward(self, x: np.ndarray, batch: np.ndarray):
        layers = self._unflatten(self._check_x(x))
        a = self.X[batch]
        activations = [a]
        for W, b in layers[:-1]:
            a = np.tanh(a @ W.T + b)
            activations.append(a)
        W, b = layers[-1]
        logits = a @ W.T + b
        return layers, activations, logits

    def _loss_from_logits(self, logits: np.ndarray, labels: np.ndarray) -> float:
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-log_probs[np.arange(len(labels)), labels].mean())

    def objective(self, x: np.ndarray) -> float:
        _, _, logits = self._forward(x, np.arange(self.num_samples))
        return self._loss_from_logits(logits, self.labels)

    def stochastic_gradient(self, x: np.ndarray, batch_indices: np.ndarray) -> np.ndarray:
        batch_indices = np.asarray(batch_indices)
        layers, activations, logits = self._forward(x, batch_indices)
        labels = self.labels[batch_indices]
        n = len(batch_indices)

        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        delta = probs
        delta[np.arange(n), labels] -= 1.0
        delta /= n

        grads = []
        for k in range(len(layers) - 1, -1, -1):
            W, _ = layers[k]
            a_in = activations[k]
            gW = delta.T @ a_in
            gb = delta.sum(axis=0)
            grads.append((gW, gb))
            if k > 0:
                delta = (delta @ W) * (1.0 - a_in * a_in)
        grads.reverse()
        return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])

    def accuracy(self, x: np.ndarray) -> float:
        _, _, logits = self._forward(x, np.arange(self.num_samples))
        return float(np.mean(logits.argmax(axis=1) == self.labels))


def finite_diff_check(p: Problem, x: np.ndarray, h: float = 1e-5) -> float:
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


def estimate_second_moment(p: Problem, x_samples: list[np.ndarray], d_prime: int,
                           batch_size: int = 1, rng: Stream | None = None,
                           n_draws: int = 200) -> float:
    """Largest per-segment second moment E||g'||^2 over the given points.

    For batch_size 1 the expectation over a uniformly drawn sample index
    is computed exactly by enumeration; full batches are deterministic,
    so one evaluation suffices. Anything in between is Monte-Carlo
    estimated with n_draws seeded batches.
    """
    if d_prime < 1:
        raise ValueError(f"d_prime must be >= 1, got {d_prime}")
    n_seg = -(-p.dim // d_prime)

    def seg_sq(g: np.ndarray) -> np.ndarray:
        padded = np.zeros(n_seg * d_prime)
        padded[:p.dim] = g
        return (padded.reshape(n_seg, d_prime) ** 2).sum(axis=1)

    worst = 0.0
    for j, x in enumerate(x_samples):
        if batch_size >= p.num_samples:
            moments = seg_sq(p.gradient(x))
        elif batch_size == 1:
            moments = np.zeros(n_seg)
            for i in range(p.num_samples):
                moments += seg_sq(p.stochastic_gradient(x, np.array([i])))
            moments /= p.num_samples
        else:
            if rng is None:
                raise ValueError("mini-batch estimation needs an rng stream")
            moments = np.zeros(n_seg)
            for t in range(n_draws):
                idx = rng.derive(j, t).choice_without_replacement(p.num_samples, batch_size)
                moments += seg_sq(p.stochastic_gradient(x, idx))
            moments /= n_draws
        worst = max(worst, float(moments.max()))
    return worst

"""Synthetic differentiable objectives with stochastic-gradient oracles.

Three problem families, all seeded, whose data is immutable after
construction. TinyMLP's full-batch oracles write into private scratch
buffers that the instance reuses, so one instance must not serve
concurrent calls from several threads.

* Quadratic: least squares with a planted solution, so x*, f* = 0 and
  the smoothness constant are known exactly.
* Logistic: binary logistic regression on two separable Gaussian clouds
  (margin 0.5 along a random direction) plus a small ridge term; the
  optimum is found by Newton's method.
* TinyMLP: a dense tanh network with softmax cross-entropy on Gaussian
  blobs, gradients by hand-rolled backprop. Non-convex; f* is the CE
  infimum 0, which is only a lower bound.

The constants the convergence theorems read (Logistic's x* and f*, and
both families' smoothness L and radius R) are computed from the data on
first read and cached, so a run that reads none of them never pays for
the Newton solve or the O(d^3) eigendecomposition.

Objectives are means over samples, so the mean of the per-sample
gradients equals the full gradient identically and batch oracles are
unbiased for any index distribution that is uniform over samples.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .codebook import seed_violations
from .errors import InvalidShape, out_of_range, refuse_argument
from .quantizers import segment_gradient
from .rng import Stream

LOGISTIC_RIDGE = 1e-3
LOGISTIC_MARGIN = 0.5
TINYMLP_BLOB_SPREAD = 0.7


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

    def loss_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(objective(x), gradient(x)); a family whose two share work overrides it."""
        return self.objective(x), self.gradient(x)

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
    exact, each computed on first read and cached.
    """

    kind = "quadratic"

    def __init__(self, dim: int, seed: int, num_samples: int | None = None):
        refuse_argument(out_of_range("dim", dim, 1) + seed_violations(seed))
        self.dim = dim
        self.num_samples = num_samples if num_samples is not None else 4 * dim
        refuse_argument(out_of_range("num_samples", self.num_samples, dim, label=f"dim = {dim}"))
        st = Stream(seed).derive("quadratic", dim, self.num_samples)
        self.A = st.derive("A").normal_matrix(self.num_samples, dim)
        self.x_star = st.derive("xstar").normals(dim)
        self.b = self.A @ self.x_star
        self.x0 = np.zeros(dim)
        self.f_star = 0.0

    @cached_property
    def smoothness(self) -> float:
        return float(np.linalg.eigvalsh(self.A.T @ self.A)[-1]) / self.num_samples

    @cached_property
    def radius(self) -> float:
        return float(np.linalg.norm(self.x0 - self.x_star))

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
    (the problem is strongly convex, so a handful of steps reaches
    machine precision). x_star, f_star, smoothness and radius are each
    computed on first read and cached.
    """

    kind = "logistic"

    def __init__(self, dim: int, seed: int, num_samples: int = 200):
        refuse_argument(out_of_range("dim", dim, 1) + out_of_range("num_samples", num_samples, 2)
                        + seed_violations(seed))
        self.dim = dim
        self.num_samples = num_samples
        st = Stream(seed).derive("logistic", dim, num_samples)
        w_sep = st.derive("direction").normals(dim)
        w_sep /= np.linalg.norm(w_sep)
        y = np.where(st.derive("labels").uniforms(num_samples) < 0.5, -1.0, 1.0)
        X = st.derive("features").normal_matrix(num_samples, dim)
        offsets = LOGISTIC_MARGIN / 2 + 0.3 * np.abs(st.derive("offsets").normals(num_samples))
        X += np.outer(y * offsets - X @ w_sep, w_sep)
        self.X, self.y = X, y
        self.x0 = np.zeros(dim)

    @cached_property
    def x_star(self) -> np.ndarray:
        return self._newton()

    @cached_property
    def f_star(self) -> float:
        return self.objective(self.x_star)

    @cached_property
    def smoothness(self) -> float:
        """lambda_max(X^T X) / (4N) + ridge: the logistic loss's curvature is at most 1/4."""
        gram_eigs = np.linalg.eigvalsh(self.X.T @ self.X)
        return float(gram_eigs[-1]) / (4 * self.num_samples) + LOGISTIC_RIDGE

    @cached_property
    def radius(self) -> float:
        return float(np.linalg.norm(self.x0 - self.x_star))

    def objective(self, x: np.ndarray) -> float:
        x = self._check_x(x)
        z = -self.y * (self.X @ x)
        # log(1 + e^z) = max(z, 0) + log1p(e^-|z|), stable for large |z|
        loss = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        return float(loss.mean()) + 0.5 * LOGISTIC_RIDGE * float(x @ x)

    def stochastic_gradient(self, x: np.ndarray, batch_indices: np.ndarray) -> np.ndarray:
        x = self._check_x(x)
        Xb, yb = self.X[batch_indices], self.y[batch_indices]
        sig = 1.0 / (1.0 + np.exp(yb * (Xb @ x)))
        return Xb.T @ (-yb * sig) / len(batch_indices) + LOGISTIC_RIDGE * x

    def accuracy(self, x: np.ndarray) -> float:
        pred = np.where(self.X @ self._check_x(x) >= 0, 1.0, -1.0)
        return float(np.mean(pred == self.y))

    def _newton(self) -> np.ndarray:
        x = self.x0.copy()
        for _ in range(50):
            z = self.y * (self.X @ x)
            sig = 1.0 / (1.0 + np.exp(z))
            grad = self.X.T @ (-self.y * sig) / self.num_samples + LOGISTIC_RIDGE * x
            w = sig * (1.0 - sig)
            hess = (self.X.T * w) @ self.X / self.num_samples
            hess[np.diag_indices_from(hess)] += LOGISTIC_RIDGE
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
                 num_samples: int = 256):
        if not isinstance(layer_sizes, (list, tuple)):
            raise ValueError(f"layer_sizes: must be a list or tuple, got {layer_sizes!r}")
        refuse_argument([v for n in layer_sizes for v in out_of_range("layer_sizes", n, None)]
                        + out_of_range("num_samples", num_samples, 1) + seed_violations(seed))
        if len(layer_sizes) < 2 or min(layer_sizes) < 1:
            raise ValueError(f"layer_sizes: needs >= 2 positive entries, got {layer_sizes}")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.num_classes = self.layer_sizes[-1]
        self.num_samples = num_samples
        self.dim = sum(o * i + o for i, o in zip(self.layer_sizes, self.layer_sizes[1:]))
        st = Stream(seed).derive("tinymlp", *self.layer_sizes, num_samples)

        in_dim = self.layer_sizes[0]
        means = st.derive("means").normal_matrix(self.num_classes, in_dim)
        means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
        self.labels = np.arange(num_samples) % self.num_classes
        self.X = means[self.labels] + TINYMLP_BLOB_SPREAD * st.derive("noise").normal_matrix(
            num_samples, in_dim)

        x0 = []
        for k, (i, o) in enumerate(zip(self.layer_sizes, self.layer_sizes[1:])):
            x0.append(st.derive("init", k).normals(o * i) * (0.5 / np.sqrt(i)))
            x0.append(np.zeros(o))
        self.x0 = np.concatenate(x0)
        self.f_star = 0.0
        self._scratch = None

    def _unflatten(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        layers, pos = [], 0
        for i, o in zip(self.layer_sizes, self.layer_sizes[1:]):
            W = x[pos:pos + o * i].reshape(o, i)
            b = x[pos + o * i:pos + o * i + o]
            layers.append((W, b))
            pos += o * i + o
        return layers

    def _full_batch_scratch(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Buffers for every hidden activation and the logits, and one flat
        array for the delta @ W products, made on the first full-batch call.

        The full batch runs every round, and fresh arrays of its size are
        mapped and page-faulted in again on each call.
        """
        if self._scratch is None:
            n = self.num_samples
            outputs = [np.empty((n, o)) for o in self.layer_sizes[1:]]
            self._scratch = outputs, np.empty(n * max(self.layer_sizes[1:-1], default=0))
        return self._scratch

    def _forward(self, x: np.ndarray, batch: np.ndarray | None = None):
        """Activations per layer and the logits; no batch means every
        sample, read from self.X itself and written into the instance's
        scratch buffers. activations[0] is never written."""
        layers = self._unflatten(self._check_x(x))
        if batch is None:
            a, outputs = self.X, self._full_batch_scratch()[0]
        else:
            a, outputs = self.X[batch], [None] * len(layers)
        activations = [a]
        for (W, b), out in zip(layers[:-1], outputs):
            a = np.matmul(a, W.T, out=out)
            a += b
            np.tanh(a, out=a)
            activations.append(a)
        W, b = layers[-1]
        logits = np.matmul(a, W.T, out=outputs[-1])
        logits += b
        return layers, activations, logits

    def _loss_from_logits(self, logits: np.ndarray, labels: np.ndarray) -> float:
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-log_probs[np.arange(len(labels)), labels].mean())

    def _backward(self, layers, activations, logits, labels) -> np.ndarray:
        """Backprop of the mean cross-entropy; overwrites the hidden activations."""
        n = len(labels)
        # the full batch takes each delta @ W in the flat scratch array, reshaped
        # C-contiguous so that matmul writes it directly
        products = self._full_batch_scratch()[1] if activations[0] is self.X else None
        delta = logits - logits.max(axis=1, keepdims=True)
        np.exp(delta, out=delta)
        delta /= delta.sum(axis=1, keepdims=True)
        delta[np.arange(n), labels] -= 1.0
        delta /= n

        grads = []
        for k in range(len(layers) - 1, -1, -1):
            W, _ = layers[k]
            a_in = activations[k]
            grads.append(np.concatenate([(delta.T @ a_in).ravel(), delta.sum(axis=0)]))
            if k > 0:
                # a_in is read for the last time above: reuse it as tanh' = 1 - a^2
                a_in *= a_in
                np.subtract(1.0, a_in, out=a_in)
                a_in *= np.matmul(delta, W, out=None if products is None
                                  else products[:a_in.size].reshape(a_in.shape))
                delta = a_in
        grads.reverse()
        return np.concatenate(grads)

    def objective(self, x: np.ndarray) -> float:
        return self._loss_from_logits(self._forward(x)[2], self.labels)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._backward(*self._forward(x), self.labels)

    def loss_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        layers, activations, logits = self._forward(x)
        return (self._loss_from_logits(logits, self.labels),
                self._backward(layers, activations, logits, self.labels))

    def stochastic_gradient(self, x: np.ndarray, batch_indices: np.ndarray) -> np.ndarray:
        batch_indices = np.asarray(batch_indices)
        return self._backward(*self._forward(x, batch_indices), self.labels[batch_indices])

    def accuracy(self, x: np.ndarray) -> float:
        return float(np.mean(self._forward(x)[2].argmax(axis=1) == self.labels))


def estimate_second_moment(p: Problem, x_samples: list[np.ndarray], d_prime: int) -> float:
    """Largest per-segment second moment E||g'||^2 over the given points, the
    expectation over one uniformly drawn sample taken exactly by enumeration."""
    refuse_argument(out_of_range("d_prime", d_prime, 1))
    worst = 0.0
    for x in x_samples:
        moments = np.zeros(-(-p.dim // d_prime))
        for i in range(p.num_samples):
            g = segment_gradient(p.stochastic_gradient(x, np.array([i])), d_prime)
            moments += (g ** 2).sum(axis=1)
        moments /= p.num_samples
        worst = max(worst, float(moments.max()))
    return worst

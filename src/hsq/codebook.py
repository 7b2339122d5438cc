"""Shared vector codebooks.

A codebook is a d'-by-m matrix whose columns are unit-norm direction
vectors on the hyper-sphere. Every device and the coordinator hold the
same matrix; only a column index ever crosses the wire. Generation is a
pure function of (method, dim, count, seed) on the portable stream from
:mod:`hsq.rng`, so a seed alone is enough to share a codebook.

Column generation avoids LAPACK: orthonormalization is done by modified
Gram-Schmidt with one re-orthogonalization pass. Its dot products and the
k-means distance products still go through BLAS, so the columns are
bit-identical for a given BLAS kernel, not across kernels (ROADMAP item
3). The pseudo-inverse and the singular values are derived metadata
(computed from the columns at construction) and are allowed to use the
dense linear-algebra routines.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape, RankDeficient, WireFormatError, out_of_range
from .rng import Stream

UNIT_NORM_TOL = 1e-12
RANK_TOL = 1e-10

KMEANS_POOL_FACTOR = 256
KMEANS_ITERATIONS = 25

CODEBOOK_MAGIC = b"HSQC"
CODEBOOK_VERSION = 1
_U32_MAX = 0xFFFFFFFF  # the file header's d' and m fields are u32, its seed u64


class CodebookMethod(enum.Enum):
    """How the codewords are placed on the hyper-sphere."""

    SOB = "sob"                          # standard orthonormal basis e_1..e_d'
    RANDOM_ROTATION = "random-rotation"  # Haar rotation of the SOB
    RANDOM_GAUSSIAN = "random-gaussian"  # normalized Gaussian directions
    KMEANS_GAUSSIAN = "kmeans-gaussian"  # Lloyd centers of a Gaussian pool
    CUSTOM = "custom"                    # caller-supplied columns


_METHOD_CODES = {
    CodebookMethod.SOB: 0,
    CodebookMethod.RANDOM_ROTATION: 1,
    CodebookMethod.RANDOM_GAUSSIAN: 2,
    CodebookMethod.KMEANS_GAUSSIAN: 3,
    CodebookMethod.CUSTOM: 255,
}
_CODE_METHODS = {v: k for k, v in _METHOD_CODES.items()}
SQUARE_METHODS = (CodebookMethod.SOB, CodebookMethod.RANDOM_ROTATION)  # m = d' always
SEEDED_METHODS = tuple(m for m in CodebookMethod if m is not CodebookMethod.CUSTOM)  # generate's


@dataclass(frozen=True)
class Codebook:
    """Immutable codebook with precomputed decode/encode metadata.

    Attributes:
        dim: segment length d' (rows).
        count: number of codewords m (columns), m >= dim.
        columns: d'-by-m float64 matrix, each column unit norm.
        pinv: m-by-d' pseudo-inverse columns.T @ inv(columns @ columns.T).
        sigma_min: smallest singular value of ``columns``.
        sigma_max: largest singular value of ``columns``.
        seed: generation seed (0 for custom matrices).
        method: how the columns were produced.
    """

    dim: int
    count: int
    columns: np.ndarray
    pinv: np.ndarray
    sigma_min: float
    sigma_max: float
    seed: int
    method: CodebookMethod

    @classmethod
    def from_columns(cls, columns: np.ndarray, seed: int = 0,
                     method: CodebookMethod = CodebookMethod.CUSTOM) -> "Codebook":
        """Build a codebook from explicit columns, validating invariants.

        Raises:
            InvalidShape: not a 2-D matrix the codebook rule (``violations``)
                accepts, or columns that are not finite and unit norm.
            RankDeficient: smallest singular value below 1e-10.
        """
        columns = np.ascontiguousarray(columns, dtype=np.float64)
        if columns.ndim != 2:
            raise InvalidShape(f"codebook must be a 2-D matrix, got ndim={columns.ndim}")
        if bad := violations(method, *columns.shape, seed):
            raise InvalidShape("; ".join(bad))
        dim, count = columns.shape
        if not np.all(np.isfinite(columns)):
            raise InvalidShape("codebook entries must be finite")
        norms = np.linalg.norm(columns, axis=0)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise InvalidShape(f"codewords must be unit norm (worst deviation {worst:.3e})")

        gram = columns @ columns.T
        eigvals = np.linalg.eigvalsh(gram)
        sigma_min = float(np.sqrt(max(eigvals[0], 0.0)))
        sigma_max = float(np.sqrt(max(eigvals[-1], 0.0)))
        if sigma_min < RANK_TOL:
            raise RankDeficient(f"sigma_min = {sigma_min:.3e} < {RANK_TOL:g}; try another seed")
        pinv = _aligned(np.linalg.solve(gram, columns)).T
        return cls(dim=dim, count=count, columns=_aligned(columns), pinv=pinv,
                   sigma_min=sigma_min, sigma_max=sigma_max,
                   seed=int(seed), method=method)


def _aligned(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of a on a 64-byte boundary, where projections run fastest."""
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    out = buf[-buf.ctypes.data % 64:][:a.nbytes].view(np.float64).reshape(a.shape)
    out[...] = a
    return out


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Equivalent to the Q of a QR factorization whose R has positive
    diagonal, so the result is independent of any factorization
    convention. Square Gaussian input yields a Haar-distributed rotation.
    """
    n = a.shape[0]
    q = np.array(a, dtype=np.float64)
    for j in range(n):
        v = q[:, j]
        for _ in range(2):  # second pass controls cancellation error
            for i in range(j):
                v = v - (q[:, i] @ v) * q[:, i]
        norm = np.linalg.norm(v)
        if norm < RANK_TOL:
            raise RankDeficient(f"orthonormalization collapsed at column {j}")
        q[:, j] = v / norm
    return q


def _kmeans_columns(dim: int, count: int, stream: Stream) -> np.ndarray:
    """Lloyd iterations on a seeded Gaussian pool, centers normalized."""
    pool = stream.derive("pool").normal_matrix(KMEANS_POOL_FACTOR * count, dim)
    init = stream.derive("init").choice_without_replacement(pool.shape[0], count)
    centers = _lloyd(pool, pool[init])
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    return (centers / norms).T


def _lloyd(pool: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """KMEANS_ITERATIONS Lloyd steps from the given initial centers (rows), on pool's rows.

    The arithmetic is the plain loop's: squared distances x.c times -2, plus
    ||x||^2, plus ||c||^2; each point to its first nearest center; each center
    to its members' mean; empty clusters re-seeded in ascending order from
    the farthest points. Three cuts save passes and keep the bits:

    - Distances: one GEMM per row block of the rows [x, ||x||^2, 1] against
      [-2c, 1, ||c||^2]. Scaling by -2 is exact, so each product and partial
      sum is -2 times the plain one, and a kernel that sums each entry along
      K in order adds the two trailing terms last, in the plain order.
    - Center sums: one bincount per coordinate adds the members in pool
      order from 0.0, as ``pool[members].mean(axis=0)`` does, without an
      n x d' array of bin numbers.
    - Reseed distances: a point's own distance is taken only in a step with
      an empty cluster, from the same GEMM, so the re-seed picks the same points.

    A kernel that sums along K out of order (GEMV for a 1-row block, or an
    OpenBLAS path that the longer rows select by shape) can round a distance
    differently in its last bits; an assignment moves then only at a tie
    within those bits, as across BLAS kernels (ROADMAP item 3).
    """
    from .quantizers import _blocks  # quantizers imports this module

    (n, dim), count = pool.shape, centers.shape[0]
    centers = centers.copy()
    rows = np.column_stack([pool, np.einsum("ij,ij->i", pool, pool), np.ones(n)])
    cols = np.empty((count, dim + 2))
    cols[:, dim] = 1.0
    coords = pool.T.copy()  # each coordinate contiguous, for its bincount
    blocks, assign, sums = _blocks(n, count), np.empty(n, dtype=np.int64), np.empty((count, dim))
    for _ in range(KMEANS_ITERATIONS):
        np.multiply(centers, -2.0, out=cols[:, :dim])
        cols[:, dim + 1] = np.einsum("ij,ij->i", centers, centers)
        for at in blocks:
            assign[at] = np.argmin(rows[at] @ cols.T, axis=1)
        sizes = np.bincount(assign, minlength=count)
        for j, coord in enumerate(coords):
            sums[:, j] = np.bincount(assign, weights=coord, minlength=count)
        live = sizes > 0
        if not live.all():
            dists = np.empty(n)
            for at in blocks:
                dists[at] = np.take_along_axis(rows[at] @ cols.T, assign[at, None], axis=1)[:, 0]
        centers[live] = sums[live] / sizes[live, None]
        for c in np.flatnonzero(~live):
            # re-seed an empty cluster from the globally farthest point
            far = int(np.argmax(dists))
            centers[c] = pool[far]
            dists[far] = -np.inf
    return centers


def seed_violations(seed: int) -> list[str]:
    """The seed rule: a u64, as the file header stores it."""
    return out_of_range("seed", seed, 0, 2 ** 64 - 1)


def violations(method: CodebookMethod | str, d_prime: int, m: int, seed: int = 0) -> list[str]:
    """The codebook rule, one "field: problem" message per field it refuses.

    d' >= 1 and m >= d' (full row rank), m = d' for sob and random-rotation,
    and d', m and seed within the file header. An invalid d' leaves m only required.
    """
    method = CodebookMethod(method)
    out = out_of_range("d_prime", d_prime, 1, _U32_MAX)
    least, most, label = (None, None, "d_prime") if out else (d_prime, _U32_MAX, None)
    out += out_of_range("m", m, least, most, label)
    if not out and method in SQUARE_METHODS and m != d_prime:
        out.append(f"m: {method.value} codebooks are square, must equal {d_prime}, got {m}")
    return out + seed_violations(seed)


def generate_violations(method: CodebookMethod | str, d_prime: int, m: int,
                        seed: int = 0) -> list[str]:
    """The rule of generate: the codebook rule, for a method that a seed can build."""
    out = violations(method, d_prime, m, seed)
    if CodebookMethod(method) not in SEEDED_METHODS:
        out.append("codebook_method: custom codebooks are built via Codebook.from_columns")
    return out


def generate(method: CodebookMethod | str, dim: int, count: int, seed: int) -> Codebook:
    """Generate the shared codebook for (method, dim = d', count = m, seed).

    Deterministic: the same arguments reproduce the same columns
    bit-for-bit in any process, which is what lets a coordinator ship a
    seed instead of the matrix itself.

    Raises:
        InvalidShape: arguments generate_violations refuses.
        RankDeficient: the sampled matrix is numerically rank deficient
            (resolve by retrying with a different seed).
    """
    if bad := generate_violations(method, dim, count, seed):
        raise InvalidShape("; ".join(bad))
    method = CodebookMethod(method)
    stream = Stream(seed).derive("codebook", method.value, dim, count)
    if method is CodebookMethod.SOB:
        columns = np.eye(dim)
    elif method is CodebookMethod.RANDOM_ROTATION:
        columns = _orthonormalize(stream.normal_matrix(dim, dim))
    elif method is CodebookMethod.RANDOM_GAUSSIAN:
        raw = stream.normal_matrix(count, dim)
        columns = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).T
    else:
        columns = _kmeans_columns(dim, count, stream)
    return Codebook.from_columns(columns, seed=seed, method=method)


# ---------------------------------------------------------------------------
# On-disk format: magic "HSQC", version, dims, method, seed, row-major f64 LE
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHIIBQ")


def save_codebook(cb: Codebook, path: str) -> None:
    """Write cb in the self-describing little-endian format, if the codebook rule holds."""
    if bad := violations(cb.method, cb.dim, cb.count, cb.seed):
        raise InvalidShape("; ".join(bad))
    header = _HEADER.pack(CODEBOOK_MAGIC, CODEBOOK_VERSION, cb.dim, cb.count,
                          _METHOD_CODES[cb.method], cb.seed)
    body = cb.columns.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_codebook(path: str) -> Codebook:
    """Read a codebook file, re-validating the unit-norm invariant."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise WireFormatError("codebook file truncated")
    magic, version, dim, count, method_code, seed = _HEADER.unpack_from(data)
    if magic != CODEBOOK_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}, expected {CODEBOOK_MAGIC!r}")
    if version != CODEBOOK_VERSION:
        raise WireFormatError(f"unsupported codebook version {version}")
    if method_code not in _CODE_METHODS:
        raise WireFormatError(f"unknown method code {method_code}")
    expected = _HEADER.size + 8 * dim * count
    if len(data) != expected:
        raise WireFormatError(f"codebook file has {len(data)} bytes, expected {expected}")
    columns = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(dim, count)
    try:
        return Codebook.from_columns(columns, seed=seed, method=_CODE_METHODS[method_code])
    except InvalidShape as exc:
        raise WireFormatError(f"codebook file violates invariants: {exc}") from exc

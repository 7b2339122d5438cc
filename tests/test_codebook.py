import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

import hsq.codebook as cbm
from conftest import openblas_core, run_tests_on_kernel, traced_peak
from hsq.codebook import Codebook, CodebookMethod, generate
from hsq.errors import InvalidShape, RankDeficient, WireFormatError
from hsq.rng import Stream

ALL_METHODS = [
    (CodebookMethod.SOB, 16, 16),
    (CodebookMethod.RANDOM_ROTATION, 16, 16),
    (CodebookMethod.RANDOM_GAUSSIAN, 16, 32),
    (CodebookMethod.KMEANS_GAUSSIAN, 8, 16),
]


@pytest.mark.parametrize("method,dim,count", ALL_METHODS)
def test_columns_unit_norm(method, dim, count):
    cb = generate(method, dim, count, seed=3)
    norms = np.linalg.norm(cb.columns, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


@pytest.mark.parametrize("method,dim,count", ALL_METHODS)
def test_pinv_is_right_inverse(method, dim, count):
    cb = generate(method, dim, count, seed=3)
    ident = cb.columns @ cb.pinv
    assert np.max(np.abs(ident - np.eye(dim))) <= 1e-9


@pytest.mark.parametrize("method,dim,count", ALL_METHODS)
def test_pinv_matches_library_oracle(method, dim, count):
    cb = generate(method, dim, count, seed=5)
    oracle = np.linalg.pinv(cb.columns)  # computed by SVD, independent route
    assert np.max(np.abs(cb.pinv - oracle)) <= 1e-9


def test_hand_oracle_2x3():
    # C = [[1,0,1/sqrt2],[0,1,1/sqrt2]]: gram = [[1.5,0.5],[0.5,1.5]],
    # inverse by hand = (1/2)*[[1.5,-0.5],[-0.5,1.5]]
    c = np.array([[1.0, 0.0, 1 / np.sqrt(2)],
                  [0.0, 1.0, 1 / np.sqrt(2)]])
    cb = Codebook.from_columns(c)
    assert np.max(np.abs(c @ cb.pinv - np.eye(2))) <= 1e-12
    gram_inv = 0.5 * np.array([[1.5, -0.5], [-0.5, 1.5]])
    np.testing.assert_allclose(cb.pinv, c.T @ gram_inv, atol=1e-14)


@pytest.mark.parametrize("method", [CodebookMethod.SOB, CodebookMethod.RANDOM_ROTATION])
def test_orthonormal_pinv_is_transpose(method):
    cb = generate(method, 12, 12, seed=1)
    np.testing.assert_allclose(cb.pinv, cb.columns.T, atol=1e-12)


@pytest.mark.parametrize("method,dim,count", ALL_METHODS)
def test_projector_identity(method, dim, count):
    cb = generate(method, dim, count, seed=9)
    for i in range(20):
        g = Stream(50).derive(i).normals(dim)
        np.testing.assert_allclose(cb.columns @ (cb.pinv @ g), g, atol=1e-9)


@pytest.mark.parametrize("method,dim,count", ALL_METHODS)
def test_sigma_matches_eigen_oracle(method, dim, count):
    cb = generate(method, dim, count, seed=7)
    sv = np.linalg.svd(cb.columns, compute_uv=False)  # independent oracle
    assert abs(cb.sigma_max - sv[0]) <= 1e-8
    assert abs(cb.sigma_min - sv[-1]) <= 1e-8
    assert cb.sigma_min <= cb.sigma_max


@pytest.mark.parametrize("method,dim,count", ALL_METHODS)
def test_generation_deterministic(method, dim, count):
    a = generate(method, dim, count, seed=12)
    b = generate(method, dim, count, seed=12)
    assert np.array_equal(a.columns, b.columns)  # bit-identical
    if method is not CodebookMethod.SOB:  # SOB is the same basis for every seed
        assert not np.array_equal(a.columns, generate(method, dim, count, seed=13).columns)


def test_sob_and_rotation_share_unit_spectrum():
    sob = generate(CodebookMethod.SOB, 10, 10, seed=0)
    rot = generate(CodebookMethod.RANDOM_ROTATION, 10, 10, seed=4)
    for cb in (sob, rot):
        assert abs(cb.sigma_min - 1.0) <= 1e-9
        assert abs(cb.sigma_max - 1.0) <= 1e-9


def test_rotation_is_haar_signed():
    # the sign fix makes the rotation a pure function of the seed; two
    # different seeds give different rotations
    a = generate(CodebookMethod.RANDOM_ROTATION, 6, 6, seed=1).columns
    b = generate(CodebookMethod.RANDOM_ROTATION, 6, 6, seed=2).columns
    assert not np.allclose(a, b)
    np.testing.assert_allclose(a.T @ a, np.eye(6), atol=1e-12)


def test_generate_rejects_bad_shapes():
    with pytest.raises(InvalidShape):
        generate(CodebookMethod.SOB, 8, 16, seed=0)  # square methods need m == d'
    with pytest.raises(InvalidShape):
        generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 4, seed=0)  # m < d'
    with pytest.raises(InvalidShape):
        generate(CodebookMethod.CUSTOM, 4, 4, seed=0)
    with pytest.raises(InvalidShape):
        generate(CodebookMethod.RANDOM_GAUSSIAN, 0, 4, seed=0)


def test_from_columns_rejects_non_unit():
    c = np.eye(3)
    c[0, 0] = 1.001
    with pytest.raises(InvalidShape):
        Codebook.from_columns(c)
    # a NaN entry passes the norm comparison and must not reach the eigen-solve
    c = np.eye(3)
    c[1, 2] = np.nan
    with pytest.raises(InvalidShape):
        Codebook.from_columns(c)


def test_from_columns_rejects_rank_deficient():
    c = np.eye(3)
    c[:, 2] = c[:, 0]  # duplicate column, rank 2
    with pytest.raises(RankDeficient):
        Codebook.from_columns(c)


def test_kmeans_full_rank_and_deterministic():
    a = generate(CodebookMethod.KMEANS_GAUSSIAN, 8, 24, seed=2)
    b = generate(CodebookMethod.KMEANS_GAUSSIAN, 8, 24, seed=2)
    assert np.array_equal(a.columns, b.columns)
    assert a.sigma_min > 1e-10
    assert a.columns.shape == (8, 24)


# k-means columns are pinned by digest, so a faster Lloyd loop cannot move a bit
_KMEANS_GRID = [(dim, count, seed) for dim, count in ((1, 1), (1, 3), (3, 7), (4, 16), (8, 24),
                                                      (16, 16), (16, 32)) for seed in (0, 1, 2)]
_KMEANS_GRID.append((8, 64, 0))


def test_kmeans_columns_pinned():
    digest = hashlib.sha256()
    for dim, count, seed in _KMEANS_GRID:
        digest.update(generate(CodebookMethod.KMEANS_GAUSSIAN, dim, count, seed).columns.tobytes())
    assert digest.hexdigest() == _KMEANS_DIGEST


_KMEANS_DIGEST = "18081bff5ebfb71d2e72880e9fbbfac5091c6208cd9942e630ca22c37532e713"


def test_kmeans_columns_pinned_at_larger_shapes():
    # a pool of 65,536 rows (d' = 16, m = 256) and a wide segment (d' = 64)
    digest = hashlib.sha256()
    for dim, count, seed in (16, 256, 0), (64, 64, 0):
        digest.update(generate(CodebookMethod.KMEANS_GAUSSIAN, dim, count, seed).columns.tobytes())
    assert digest.hexdigest() == "0571b1612c5d1ca3172cc97da603b05c9a8b48b0f6331ff6ab858abdff193470"


@pytest.mark.parametrize("coretype,core", [("Haswell", "Haswell"), ("Prescott", "Katmai")])
def test_kmeans_columns_pinned_under_other_kernels(coretype, core):
    """The k-means pin again, in a child process on another OpenBLAS kernel,
    whose GEMM blocks differently (OpenBLAS names the Prescott kernel Katmai)."""
    if openblas_core() is None:
        pytest.skip("numpy's bundled OpenBLAS is not readable here")
    read, proc = run_tests_on_kernel(coretype, [__file__ + "::test_kmeans_columns_pinned"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert read == core
    assert "1 passed" in proc.stdout


def test_lloyd_peak_memory_at_large_pool():
    pool = Stream(4).normal_matrix(cbm.KMEANS_POOL_FACTOR * 256, 16)  # 8 MiB, not counted
    init = pool[:256].copy()
    peak = traced_peak(cbm._lloyd, pool, init)
    assert peak < 20 * 2 ** 20, peak


def _ref_lloyd(pool, centers):
    """Straight-line Lloyd loop: one masked mean per center, empty clusters re-seeded in order."""
    centers = centers.copy()
    reseeded = 0
    pool_sq = np.einsum("ij,ij->i", pool, pool)
    for _ in range(cbm.KMEANS_ITERATIONS):
        cross = pool @ centers.T
        center_sq = np.einsum("ij,ij->i", centers, centers)
        assign = np.argmin(pool_sq[:, None] - 2.0 * cross + center_sq[None, :], axis=1)
        dists = pool_sq - 2.0 * cross[np.arange(pool.shape[0]), assign] + center_sq[assign]
        for c in range(centers.shape[0]):
            members = assign == c
            if np.any(members):
                centers[c] = pool[members].mean(axis=0)
            else:
                far = int(np.argmax(dists))
                centers[c] = pool[far]
                dists[far] = -np.inf
                reseeded += 1
    return centers, reseeded


def test_lloyd_reseeds_empty_clusters_like_reference():
    # coinciding initial centers tie, the tie goes to the lower index, and the
    # higher center's empty cluster is re-seeded from the farthest point
    pool = Stream(9).normal_matrix(96, 4)
    pool[7] = pool[3]
    pool[40] = pool[3]
    init = pool[[3, 7, 11, 40, 50, 60]]
    expected, reseeded = _ref_lloyd(pool, init)
    assert reseeded >= 2
    got = cbm._lloyd(pool, init)
    assert np.array_equal(got, expected)
    assert np.array_equal(init, pool[[3, 7, 11, 40, 50, 60]])  # the initial centers are not written


# ---------------------------------------------------------------------------
# save / load


def test_arrays_start_on_64_byte_boundaries(tmp_path):
    # projections onto the codewords run fastest from an aligned start;
    # pinv keeps its layout, the transpose of a C-ordered array
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 16, 256, seed=0)
    cbm.save_codebook(cb, str(tmp_path / "cb.hsqc"))
    for book in (cb, cbm.load_codebook(str(tmp_path / "cb.hsqc")), Codebook.from_columns(np.eye(3))):
        assert book.columns.ctypes.data % 64 == 0 and book.columns.flags.c_contiguous
        assert book.pinv.ctypes.data % 64 == 0 and book.pinv.T.flags.c_contiguous


_CUSTOM = np.array([[1.0, 0.0, 0.6, -0.8], [0.0, 1.0, 0.8, 0.6]])


@pytest.mark.parametrize("method,dim,count", ALL_METHODS + [(CodebookMethod.CUSTOM, 2, 4)])
def test_codeword_table_is_the_columns_row_major_and_stays_off_disk(tmp_path, method, dim,
                                                                   count):
    # decode gathers whole codewords from cb.codewords; a file still holds only the header
    # and the columns, and loading one builds the table again
    cb = (Codebook.from_columns(_CUSTOM) if method is CodebookMethod.CUSTOM
          else generate(method, dim, count, seed=5))
    path = tmp_path / "cb.hsqc"
    cbm.save_codebook(cb, str(path))
    header = cbm._HEADER.pack(cbm.CODEBOOK_MAGIC, cbm.CODEBOOK_VERSION, dim, count,
                              cbm._METHOD_CODES[method], cb.seed)
    assert path.read_bytes() == header + cb.columns.astype("<f8").tobytes()
    for book in (cb, cbm.load_codebook(str(path))):
        assert book.codewords.shape == (count, dim) and book.codewords.flags.c_contiguous
        assert book.codewords.tobytes() == np.ascontiguousarray(cb.columns.T).tobytes()


def test_save_load_roundtrip(tmp_path):
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=42)
    path = tmp_path / "cb.hsqc"
    cbm.save_codebook(cb, str(path))
    back = cbm.load_codebook(str(path))
    assert np.array_equal(back.columns, cb.columns)
    assert back.method == cb.method
    assert back.seed == cb.seed
    assert back.dim == cb.dim and back.count == cb.count


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hsqc"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(WireFormatError):
        cbm.load_codebook(str(path))


def test_load_rejects_truncated(tmp_path):
    cb = generate(CodebookMethod.SOB, 4, 4, seed=0)
    path = tmp_path / "trunc.hsqc"
    cbm.save_codebook(cb, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(WireFormatError):
        cbm.load_codebook(str(path))


def test_load_rejects_non_finite_entry(tmp_path):
    cb = generate(CodebookMethod.SOB, 4, 4, seed=0)
    path = tmp_path / "nan.hsqc"
    cbm.save_codebook(cb, str(path))
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(WireFormatError):
        cbm.load_codebook(str(path))


# ---------------------------------------------------------------------------
# the codebook rule


def test_generate_and_from_columns_refuse_exactly_what_the_rule_refuses():
    for method, d_prime, m, seed in itertools.product(
            [m for m in CodebookMethod if m is not CodebookMethod.CUSTOM],
            (-1, 0, 1, 3, 2 ** 32), (0, 2, 3, 4, 2 ** 32), (-1, 0, 2 ** 64)):
        bad = cbm.violations(method, d_prime, m, seed)
        if bad:
            with pytest.raises(InvalidShape) as exc:
                generate(method, d_prime, m, seed)
            assert str(exc.value) == "; ".join(bad)
            continue
        cb = generate(method, d_prime, m, seed)
        assert (cb.dim, cb.count, cb.seed) == (d_prime, m, seed)
    # from_columns holds any matrix to the same rule
    with pytest.raises(InvalidShape, match="^m: must be >= 3, got 2$"):
        Codebook.from_columns(np.eye(3)[:, :2])
    with pytest.raises(InvalidShape, match="^m: sob codebooks are square, must equal 2, got 3$"):
        Codebook.from_columns(np.eye(2)[:, [0, 1, 1]], method=CodebookMethod.SOB)


def test_rule_names_each_field_once_and_holds_m_to_a_valid_d_prime():
    assert cbm.violations("random-gaussian", 4, 8, 0) == []
    assert cbm.violations("random-gaussian", 0, 0, -1) == [
        "d_prime: must be >= 1, got 0", "seed: must be >= 0, got -1"]
    assert cbm.violations("sob", 2 ** 32, 2 ** 32, 2 ** 64) == [
        "d_prime: must be <= 4294967295, got 4294967296",
        "seed: must be <= 18446744073709551615, got 18446744073709551616"]
    assert cbm.violations("random-rotation", 4, 8) == [
        "m: random-rotation codebooks are square, must equal 4, got 8"]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_save_codebook_refuses_a_seed_its_header_cannot_hold(tmp_path, seed):
    # a Codebook built around from_columns; the header's seed field is a u64
    cb = dataclasses.replace(generate(CodebookMethod.SOB, 4, 4, seed=0), seed=seed)
    path = tmp_path / "cb.hsqc"
    with pytest.raises(InvalidShape, match="^seed: must be "):
        cbm.save_codebook(cb, str(path))
    assert not path.exists()

import numpy as np
import pytest

from hsq import rng
from hsq.rng import Stream, mix64

MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15


def scalar_mix64(z):
    # independent straight-line reimplementation of the documented finalizer
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def test_words_match_scalar_oracle():
    # the vectorized uniform path must agree with a hand-rolled scalar walk
    seed = 0x123456789ABCDEF
    got = Stream(seed).uniforms(64)
    expected = np.array([
        (scalar_mix64((seed + i * GOLDEN) & MASK) >> 11) * 2.0 ** -53
        for i in range(1, 65)
    ])
    np.testing.assert_array_equal(got, expected)


def test_mix64_matches_oracle_values():
    for z in (0, 1, 2**63, MASK, 0xDEADBEEF):
        assert mix64(z) == scalar_mix64(z)


def test_same_seed_same_stream():
    a = Stream(7).uniforms(100)
    b = Stream(7).uniforms(100)
    np.testing.assert_array_equal(a, b)


def test_chunking_does_not_change_output():
    whole = Stream(3).uniforms(10)
    s = Stream(3)
    parts = np.concatenate([s.uniforms(4), s.uniforms(1), s.uniforms(5)])
    np.testing.assert_array_equal(whole, parts)


def test_different_seeds_differ():
    assert not np.array_equal(Stream(1).uniforms(8), Stream(2).uniforms(8))


def test_uniform_range_and_moments():
    u = Stream(11).uniforms(200_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # mean 1/2 with sd 1/sqrt(12n); 4-sigma band
    assert abs(u.mean() - 0.5) < 4 / np.sqrt(12 * u.size)


def test_normal_moments():
    x = Stream(13).normals(200_000)
    assert abs(x.mean()) < 4 / np.sqrt(x.size)
    assert abs(x.var() - 1.0) < 4 * np.sqrt(2.0 / x.size)
    assert np.all(np.isfinite(x))


def test_normals_odd_count():
    s = Stream(5)
    assert s.normals(7).shape == (7,)


def test_normal_matrix_matches_flat():
    a = Stream(9).normal_matrix(4, 6)
    b = Stream(9).normals(24).reshape(4, 6)
    np.testing.assert_array_equal(a, b)


def test_derive_is_independent_of_position():
    s = Stream(21)
    child_before = s.derive("x").uniforms(4)
    s.uniforms(100)  # consume parent output
    child_after = s.derive("x").uniforms(4)
    np.testing.assert_array_equal(child_before, child_after)


def test_substream_uniforms_match_derived_streams():
    # an int-array tag derives one child per element: row j of the draws
    # equals the draws of the child derived from element j alone
    draws = (lambda st, k: st.uniforms(k), lambda st, k: st.normals(k))
    for seed in (0, 12345, MASK):  # seed + golden wraps mod 2^64 at MASK
        s = Stream(seed)
        s.uniforms(7)  # the parent's position must not matter
        for n, k in ((1, 1), (40, 2), (5, 9), (0, 2), (3, 4)):
            for draw in draws:
                for pre, post in (((), ()), (("a",), ("b",))):
                    expected = np.array([draw(s.derive(*pre, j, *post), k)
                                         for j in range(n)]).reshape(n, k)
                    np.testing.assert_array_equal(draw(s.derive(*pre, np.arange(n), *post), k),
                                                  expected)


def test_child_uniforms_match_derived_children_inside_and_beyond_the_table():
    # child_uniforms takes child j's tag word mix64(j) from a table that grows to
    # the largest n asked for; inside it and past its end, on plain streams and
    # on streams of many children, it is derive(np.arange(n)).uniforms(k)
    parents = (Stream(0), Stream(MASK), Stream(3).derive("x"), Stream(9).derive(np.arange(4)),
               Stream(2).derive(np.arange(2), np.arange(3)))
    for parent in parents:
        parent.uniforms(5)  # the parent's position must not matter
        size = len(rng._CHILD_WORDS)
        for n in (0, 1, 3, max(size - 1, 0), size, size + 1, 2 * size + 7, 3):
            for k in (0, 1, 2, 5):
                got = parent.child_uniforms(n, k)
                expected = parent.derive(np.arange(n)).uniforms(k)
                assert got.shape == expected.shape == np.shape(parent.seed) + (n, k)
                assert got.tobytes() == expected.tobytes(), (n, k)
            assert len(rng._CHILD_WORDS) >= n
    table = rng._child_words(len(rng._CHILD_WORDS))
    np.testing.assert_array_equal(table, mix64(np.arange(len(table), dtype=np.uint64)))
    assert not table.flags.writeable


def test_array_tags_on_many_children_form_an_outer_product():
    # each array tag adds a trailing axis: child (i, j) is derive(i).derive(j)
    s = Stream(17)
    for n, k in ((3, 3), (2, 5), (4, 1), (0, 3), (3, 0)):
        a, b = np.arange(n) + 10, np.arange(k)
        for batch in (s.derive(a, "x", b), s.derive(a).derive("x", b), s.derive(a, "x").derive(b)):
            assert batch.seed.shape == (n, k)
            got = batch.uniforms(2)
            assert got.shape == (n, k, 2)
            for i in range(n):
                for j in range(k):
                    np.testing.assert_array_equal(got[i, j],
                                                  s.derive(int(a[i])).derive("x", j).uniforms(2))
        assert s.derive(a, b).derive(np.arange(2)).seed.shape == (n, k, 2)


def test_chained_derive_equals_multi_tag_derive():
    # derive folds its tags in order, so a prefix can be derived once and reused
    ids = np.array([3, 0, 2 ** 40])
    tag_sets = (("batch", 7, 3), ("batch", 7, ids), (7, "x", ids), (ids, "quantize", 2),
                (ids, ids), ("a", "bc"), (2 ** 64 - 1, -5))
    for parent in (Stream(0), Stream(MASK), Stream(9).derive(np.arange(4))):
        for tags in tag_sets:
            whole = parent.derive(*tags)
            for cut in range(len(tags) + 1):
                chained = parent.derive(*tags[:cut]).derive(*tags[cut:])
                np.testing.assert_array_equal(chained.seed, whole.seed)
                np.testing.assert_array_equal(chained.uniforms(3), whole.derive().uniforms(3))


def test_array_tag_streams_keep_their_position():
    ids = np.array([-1, 0, 2 ** 40, 7])  # negative ids wrap mod 2^64 like int tags
    batch = Stream(5).derive("x", ids)
    got = [batch.uniforms(3), batch.normals(5), batch.uniforms(1)]
    for j, i in enumerate(ids.tolist()):
        child = Stream(5).derive("x", i)
        for part, expected in zip(got, [child.uniforms(3), child.normals(5), child.uniforms(1)]):
            np.testing.assert_array_equal(part[j], expected)
    np.testing.assert_array_equal(Stream(5).derive(ids.astype(np.uint64)).seed,
                                  Stream(5).derive(ids).seed)


def test_array_tag_permutations_and_choices_are_per_row():
    ids = np.arange(4)
    perms = Stream(6).derive("p", ids).permutation(9)
    picks = Stream(6).derive("c", ids).choice_without_replacement(9, 3)
    for j in ids.tolist():
        np.testing.assert_array_equal(perms[j], Stream(6).derive("p", j).permutation(9))
        np.testing.assert_array_equal(picks[j],
                                      Stream(6).derive("c", j).choice_without_replacement(9, 3))


def test_uniform_refuses_a_stream_of_many_children():
    assert Stream(6).derive(np.arange(1)).uniform() == Stream(6).derive(0).uniform()
    with pytest.raises(ValueError):
        Stream(6).derive(np.arange(3)).uniform()


def test_derive_tags_distinguish():
    s = Stream(4)
    seen = set()
    for tags in [("a",), ("b",), ("a", "b"), ("ab",), (0,), (1,), ("a", 0), (0, "a")]:
        seen.add(s.derive(*tags).seed)
    assert len(seen) == 8  # no collisions among distinct tag tuples


def test_stream_rejects_non_integer_seed():
    for seed in (1.5, 2.0, np.float64(3.0), "7", np.arange(3.0)):
        with pytest.raises(TypeError):
            Stream(seed)
    assert Stream(np.int64(-1)).seed == Stream(MASK).seed
    # an int array of seeds is one stream per element, negative seeds wrapping
    np.testing.assert_array_equal(Stream(np.array([5, -1])).uniforms(3),
                                  [Stream(5).uniforms(3), Stream(MASK).uniforms(3)])


def test_derive_rejects_unknown_tag_type():
    with pytest.raises(TypeError):
        Stream(0).derive(1.5)
    with pytest.raises(TypeError):
        Stream(0).derive(np.arange(3.0))


def test_permutation_is_a_permutation():
    p = Stream(6).permutation(50)
    assert sorted(p.tolist()) == list(range(50))


def test_choice_without_replacement_sorted_unique():
    got = Stream(8).choice_without_replacement(100, 12)
    assert got.shape == (12,)
    assert len(set(got.tolist())) == 12
    assert np.all(np.diff(got) > 0)  # ascending
    assert got.min() >= 0 and got.max() < 100


def test_choice_covers_range_uniformly():
    # every element should be picked roughly k/n of the time
    counts = np.zeros(20)
    trials = 3000
    for t in range(trials):
        counts[Stream(100).derive(t).choice_without_replacement(20, 5)] += 1
    freq = counts / trials
    assert np.all(np.abs(freq - 0.25) < 0.05)

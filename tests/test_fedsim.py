import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsq
from hsq import fedsim
from hsq.codebook import CodebookMethod, generate
from hsq.errors import ConfigError, InvalidShape
from hsq.fedsim import (CSV_COLUMNS, LR_KINDS, MAX_ROUNDS, SCHEMES, FedConfig, LrSchedule,
                        QuantizerScheme, RoundLog, compression_ratio, curly_l, logs_to_csv,
                        lr_theorem1, lr_theorem3, partition_indices, payload_bits, run,
                        theorem1_gap_bound, vq_bound)
from hsq.problems import Logistic, Quadratic, TinyMLP
from hsq.quantizers import Variant, compress, decode
from hsq.rng import Stream
from hsq.wire import encode_frame


def _identity_cfg(**kw):
    base = dict(num_clients=4, clients_per_round=2, rounds=5, local_batch=1,
                scheme=QuantizerScheme(name="identity"),
                lr=LrSchedule(eta=0.05), seed=0)
    base.update(kw)
    return FedConfig(**base)


# ---------------------------------------------------------------------------
# step-size recipes


def test_lr_theorem1_reference_values():
    # no quantization noise -> plain 1/L
    assert lr_theorem1(smoothness=4.0, radius=1.0, vq=0.0, rounds=10) == 0.25
    # L=1, R=1, V_q=1, T=100 -> 1/(1 + 10)
    assert lr_theorem1(1.0, 1.0, 1.0, 100) == pytest.approx(1 / 11)


def test_lr_theorem1_shrinks_with_rounds():
    etas = [lr_theorem1(1.0, 1.0, 1.0, t) for t in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert etas[-1] < 0.02


def test_lr_theorem1_rejects_bad_args():
    with pytest.raises(ValueError):
        lr_theorem1(1.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        lr_theorem1(1.0, 1.0, -1.0, 10)


def test_theorem1_gap_bound_by_hand():
    # R sqrt(vq/T) + L R^2 / (2T) with L=1, R=1, vq=1, T=100
    assert theorem1_gap_bound(1.0, 1.0, 1.0, 100) == pytest.approx(0.1 + 0.005)


def test_curly_l_by_hand():
    # L (1 + 4/s) d/d' with L=2, s=4, d=64, d'=8
    assert curly_l(2.0, 4, 64, 8) == pytest.approx(2.0 * 2.0 * 8.0)
    with pytest.raises(ValueError, match="^s: must be >= 1, got 0$"):
        curly_l(2.0, 0, 64, 8)


def test_curly_l_refuses_ints_beyond_the_float_range_by_name():
    # each is bounded by the u32 a frame header carries it in, before any float arithmetic
    for arg in ("s", "d", "d_prime"):
        with pytest.raises(ValueError, match=f"^{arg}: must be <= 4294967295, got "):
            curly_l(**{**dict(smoothness=1.0, s=8, d=64, d_prime=4), arg: 10 ** 400})


def test_lr_theorem3_by_hand():
    assert lr_theorem3(100, 4.0) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        lr_theorem3(0, 4.0)


def test_vq_bound_orthonormal_exact_norm():
    # orthonormal codebook (sigma_min = 1), m = d', s = 0:
    # (d/d') * (d' * B') = d * B'
    cb = generate(CodebookMethod.SOB, 8, 8, seed=0)
    assert vq_bound(64, cb, s=0, b_prime=3.0) == pytest.approx(64 * 3.0)
    # u_range is ignored in exact-norm mode
    assert vq_bound(64, cb, 0, 3.0, u_range=9.9) == vq_bound(64, cb, 0, 3.0)


def test_vq_bound_norm_quantization_term():
    cb = generate(CodebookMethod.SOB, 8, 8, seed=0)
    base = vq_bound(64, cb, s=0, b_prime=3.0)
    with_grid = vq_bound(64, cb, s=63, b_prime=3.0, u_range=2.0)
    assert with_grid == pytest.approx(base + (64 / 8) * (4.0 / 63))


def test_vq_bound_counts_a_ragged_tail_as_a_segment():
    # d = 17 on d' = 16: two segments, each carrying a rounded pseudo-norm
    cb = generate(CodebookMethod.RANDOM_ROTATION, 16, 16, seed=0)
    per_segment = 16 / cb.sigma_min ** 2 * 16.0 + 3.0 ** 2 / 7
    assert vq_bound(17, cb, 7, 16.0, u_range=3.0) == pytest.approx(2 * per_segment)
    assert vq_bound(32, cb, 7, 16.0, u_range=3.0) == vq_bound(17, cb, 7, 16.0, u_range=3.0)


def test_vq_bound_rejects_negative():
    cb = generate(CodebookMethod.SOB, 4, 4, seed=0)
    with pytest.raises(ValueError):
        vq_bound(8, cb, 0, -1.0)


def test_theorem_functions_overflow_to_inf_or_refuse_rounds():
    # a square beyond the float range is inf, not an OverflowError, and rounds stop at
    # 2^53, where every count is an exact float
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 16, seed=0)
    assert theorem1_gap_bound(1.0, 1e200, 1.0, 10) == math.inf
    assert vq_bound(8, cb, 3, 1.0, 1e200) == math.inf
    with pytest.raises(ValueError, match=f"^rounds: must be <= {MAX_ROUNDS}, got 1000"):
        lr_theorem1(1.0, 1.0, 1.0, 10 ** 400)
    assert 0.0 < lr_theorem1(1.0, 1.0, 1.0, MAX_ROUNDS) < 1e-7
    assert [v.split(":")[0] for v in _identity_cfg(rounds=MAX_ROUNDS + 1).violations()] == [
        "rounds"]


# each argument's wrong values: a real number's bound edge, below it, nan, +-inf and a
# bool; an int's least - 1, -1, a bool and 1.5, and 2^32 past a u32 bound (curly_l's s
# below 1 is test_curly_l_by_hand's)
_REAL_BAD = [-1.0, math.nan, math.inf, -math.inf, True]
_INT_BAD = [-1, True, 1.5]
_T1 = dict(smoothness=1.0, radius=1.0, vq=1.0, rounds=10)
_T1_BAD = {"smoothness": [0.0] + _REAL_BAD, "radius": [0.0] + _REAL_BAD,
           "vq": [-1e-300] + _REAL_BAD, "rounds": [0, 2 ** 53 + 1] + _INT_BAD}
_SOB4 = generate(CodebookMethod.SOB, 4, 4, seed=0)


@pytest.mark.parametrize("fn, good, arg, bad", [
    pytest.param(fn, good, arg, bad, id=f"{fn.__name__}-{arg}-{bad!r}")
    for fn, good, wrong in (
        (lr_theorem1, _T1, _T1_BAD),
        (theorem1_gap_bound, _T1, _T1_BAD),
        (lr_theorem3, dict(rounds=10, curly_l_value=4.0),
         {"curly_l_value": [0.0] + _REAL_BAD, "rounds": [0, 2 ** 53 + 1] + _INT_BAD}),
        (curly_l, dict(smoothness=2.0, s=4, d=64, d_prime=8),
         {"smoothness": [0.0] + _REAL_BAD, "s": [2 ** 32], "d": [0] + _INT_BAD + [2 ** 32],
          "d_prime": [0] + _INT_BAD + [2 ** 32]}),
        (vq_bound, dict(d=8, cb=_SOB4, s=3, b_prime=1.0, u_range=1.0),
         {"d": [0, 2 ** 32] + _INT_BAD, "s": [-2] + _INT_BAD, "b_prime": [-1e-300] + _REAL_BAD,
          "u_range": [-1e-300] + _REAL_BAD}))
    for arg, values in wrong.items() for bad in values])
def test_theorem_functions_refuse_each_argument_by_name(fn, good, arg, bad):
    name = arg.removesuffix("_value")  # lr_theorem3 reports curly_l_value as curly_l
    with pytest.raises(ValueError, match=f"^{name}: must be "):
        fn(**{**good, arg: bad})


def test_lr_schedule_resolve_dispatch():
    assert LrSchedule(eta=0.3).resolve(100) == 0.3
    assert LrSchedule(kind="theorem1", smoothness=1.0, radius=1.0,
                      vq=1.0).resolve(100) == pytest.approx(1 / 11)
    assert LrSchedule(kind="theorem3", curly_l=4.0).resolve(100) == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# config validation


def test_config_violations_per_field():
    cfg = FedConfig(num_clients=0, clients_per_round=3, rounds=0, local_batch=0,
                    scheme=QuantizerScheme(name="hsq"),
                    lr=LrSchedule(eta=None), seed=-1)
    msgs = cfg.violations()
    for fragment in ("num_clients", "clients_per_round", "rounds", "local_batch",
                     "seed", "scheme.d_prime", "scheme.m", "scheme.s", "lr.eta"):
        assert any(fragment in m for m in msgs), fragment
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert exc.value.violations == msgs


def test_config_scheme_name_unknown():
    msgs = FedConfig(scheme=QuantizerScheme(name="zipgrad"),
                     lr=LrSchedule(eta=0.1)).violations()
    assert any("scheme.name" in m for m in msgs)


@pytest.mark.parametrize("field", ["variant", "codebook_method"])
def test_hsq_rule_names_an_enum_value_that_is_none_of_its_names(field):
    sch = QuantizerScheme("hsq", 4, 16, 15, **{field: "x"})
    assert [v.split(":")[0] for v in sch.violations()] == [field]


def test_run_refuses_an_unknown_variant_before_building_a_codebook(monkeypatch):
    def no_codebook(*args):
        raise AssertionError("a codebook was built")

    monkeypatch.setattr(fedsim, "generate", no_codebook)
    cfg = _identity_cfg(scheme=QuantizerScheme("hsq", 4, 16, 15, variant="x"))
    with pytest.raises(ConfigError) as exc:
        run(cfg, Quadratic(dim=6, seed=0))
    assert [v.split(":")[0] for v in exc.value.violations] == ["scheme.variant"]


# every field of the three config objects, under each scheme name and lr kind, and the
# values each rule must refuse by that field's name without raising; _ACCEPTED lists
# per case the values a field takes, which must pass (no count but rounds has an upper
# bound)
_VALUES = ["x", 1.5, True, None, -1, 2 ** 64, math.nan, [1], np.array([1, 2])]
_ACCEPTED = {"FedConfig-num_clients": [2 ** 64], "FedConfig-local_batch": [2 ** 64],
             **{f"lr={kind}-{name}": [1.5, 2 ** 64]
                for kind, (_, params) in LR_KINDS.items() for name in params}}
# a valid QuantizerScheme per name, from the parameters its rule reads
_SCHEME_BASE = {"identity": {}, "hsq": dict(d_prime=4, m=16, s=15, variant="unbiased",
                                            codebook_method="random-gaussian"),
                "qsgd": dict(s=4, bucket_size=512), "terngrad": {}, "signsgd": {}}
_RULE_CASES = (
    [(f"FedConfig-{f.name}", FedConfig, {}, f.name, f.name)
     for f in dataclasses.fields(FedConfig)]
    + [(f"scheme={name}-{f.name}", QuantizerScheme, {"name": name, **base}, f.name,
        f.name if f.name == "name" or f.name in base else None)
       for name, base in _SCHEME_BASE.items() for f in dataclasses.fields(QuantizerScheme)]
    + [(f"lr={kind}-{f.name}", LrSchedule, {"kind": kind, **dict.fromkeys(params, 1.0)},
        f.name, f"lr.{f.name}" if f.name == "kind" or f.name in params else None)
       for kind, (_, params) in LR_KINDS.items() for f in dataclasses.fields(LrSchedule)])


@pytest.mark.parametrize("cls, base, field, named, accepted",
                         [pytest.param(*case[1:], _ACCEPTED.get(case[0], []), id=case[0])
                          for case in _RULE_CASES])
def test_every_config_rule_is_total(cls, base, field, named, accepted):
    # library callers get a list of "field: problem" strings from violations(), never an
    # exception; a parameter the scheme or lr kind does not read is ignored
    assert cls(**base).violations() == []
    for value in _VALUES:
        out = cls(**{**base, field: value}).violations()
        assert isinstance(out, list) and all(isinstance(v, str) for v in out), value
        fields = [v.split(":")[0] for v in out]
        if named is None or any(value is ok for ok in accepted):
            assert fields == [], value
        else:
            assert named in fields, value


def test_config_hsq_m_smaller_than_d_prime():
    sch = QuantizerScheme(name="hsq", d_prime=16, m=8, s=0)
    assert "m: must be >= 16, got 8" in sch.violations()


def test_theorem1_zero_radius_is_a_violation():
    lr = LrSchedule(kind="theorem1", smoothness=1.0, radius=0.0, vq=1.0)
    assert [v.split(":")[0] for v in lr.violations()] == ["lr.radius"]


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_accounting_and_config_apply_one_rule_per_parameter(name):
    # payload_bits raises exactly when the config names a parameter, and
    # its message names the same parameters
    grid = (None, -1, 0, 1, 4, 16)
    for d_prime, m, s, bucket_size in itertools.product(grid, grid, grid, (0, 1, 512)):
        sch = QuantizerScheme(name=name, d_prime=d_prime, m=m, s=s, bucket_size=bucket_size)
        named = [v.split(":")[0] for v in sch.violations()]
        if not named:
            assert payload_bits(sch, 64) > 0
            assert compression_ratio(sch) > 0
            continue
        for call in (lambda: payload_bits(sch, 64), lambda: compression_ratio(sch)):
            with pytest.raises(ConfigError) as exc:
                call()
            assert [v.split(":")[0] for v in exc.value.violations] == named


def test_every_export_resolves_once():
    assert len(hsq.__all__) == len(set(hsq.__all__))
    assert [name for name in hsq.__all__ if not hasattr(hsq, name)] == []


def test_every_accepted_lr_schedule_resolves():
    grid = (None, -1.0, 0.0, 0.5, 4, float("nan"))
    accepted = 0
    for kind, (_, params) in LR_KINDS.items():
        for values in itertools.product(grid, repeat=len(params)):
            lr = LrSchedule(kind=kind, **dict(zip(params, values)))
            if lr.violations():
                continue
            accepted += 1
            for rounds in (1, 100):
                eta = lr.resolve(rounds)
                assert math.isfinite(eta) and eta > 0
    assert accepted == 2 + 2 * 2 * 3 + 2


def test_config_downlink_requires_hsq():
    msgs = _identity_cfg(downlink_compressed=True).violations()
    assert any("downlink_compressed" in m for m in msgs)


def test_config_valid_passes():
    cfg = FedConfig(scheme=QuantizerScheme(name="hsq", d_prime=8, m=64, s=63),
                    lr=LrSchedule(eta=0.1))
    assert cfg.violations() == []
    cfg.validate()


# ---------------------------------------------------------------------------
# partitioning


def test_partition_exhaustive_and_balanced():
    shards = partition_indices(103, 10, Stream(0))
    sizes = sorted(len(s) for s in shards)
    assert sizes[0] >= 10 and sizes[-1] - sizes[0] <= 1
    merged = np.sort(np.concatenate(shards))
    np.testing.assert_array_equal(merged, np.arange(103))
    for s in shards:
        np.testing.assert_array_equal(s, np.sort(s))


def test_partition_deterministic():
    a = partition_indices(50, 7, Stream(3))
    b = partition_indices(50, 7, Stream(3))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_partition_rejects_too_few_samples():
    with pytest.raises(ConfigError):
        partition_indices(5, 10, Stream(0))


# ---------------------------------------------------------------------------
# simulation runs


def test_identity_full_batch_single_client_is_gradient_descent():
    p = Quadratic(dim=6, seed=0)
    eta = 0.5 / p.smoothness
    cfg = FedConfig(num_clients=1, clients_per_round=1, rounds=20,
                    local_batch=p.num_samples, scheme=QuantizerScheme(),
                    lr=LrSchedule(eta=eta), seed=0)
    res = run(cfg, p)
    # exact GD replay
    x = p.x0.copy()
    for _ in range(20):
        x = x - eta * p.gradient(x)
    np.testing.assert_allclose(res.x_final, x, atol=1e-12)
    # monotone loss decrease under eta < 2/L on a quadratic
    losses = [log.loss for log in res.logs]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert res.eta == eta


def test_run_is_deterministic():
    p = Quadratic(dim=8, seed=1)
    cfg = FedConfig(num_clients=4, clients_per_round=2, rounds=10,
                    scheme=QuantizerScheme(name="hsq", d_prime=4, m=16, s=15),
                    lr=LrSchedule(eta=0.05), seed=7)
    r1, r2 = run(cfg, p), run(cfg, p)
    np.testing.assert_array_equal(r1.x_final, r2.x_final)
    assert [l.loss for l in r1.logs] == [l.loss for l in r2.logs]
    assert [l.sampled_clients for l in r1.logs] == [l.sampled_clients for l in r2.logs]
    r3 = run(FedConfig(**{**cfg.__dict__, "seed": 8}), p)
    assert [l.sampled_clients for l in r3.logs] != [l.sampled_clients for l in r1.logs]


def test_round_log_fields():
    p = Quadratic(dim=6, seed=2)
    cfg = _identity_cfg(num_clients=4, clients_per_round=3, rounds=4)
    res = run(cfg, p)
    assert [log.round for log in res.logs] == [1, 2, 3, 4]
    for log in res.logs:
        assert len(log.sampled_clients) == 3
        assert len(set(log.sampled_clients)) == 3
        assert all(0 <= c < 4 for c in log.sampled_clients)
        assert log.loss == pytest.approx(log.loss)  # finite
    # logged loss/grad describe the post-update iterate
    assert res.logs[-1].loss == pytest.approx(p.objective(res.x_final))
    g = p.gradient(res.x_final)
    assert res.logs[-1].grad_norm_sq == pytest.approx(float(g @ g))


def test_uplink_bits_accounting():
    p = Quadratic(dim=64, seed=3)
    sch = QuantizerScheme(name="hsq", d_prime=16, m=256, s=63)
    cfg = FedConfig(num_clients=8, clients_per_round=5, rounds=3, scheme=sch,
                    lr=LrSchedule(eta=0.01), seed=0)
    res = run(cfg, p)
    expect = math.ceil(5 * payload_bits(sch, 64))
    assert all(log.uplink_bits == expect for log in res.logs)
    # uncompressed downlink is n * 32d
    assert all(log.downlink_bits == 5 * 32 * 64 for log in res.logs)


def test_downlink_compressed_accounting_and_shape():
    p = Quadratic(dim=32, seed=4)
    sch = QuantizerScheme(name="hsq", d_prime=8, m=64, s=63)
    cfg = FedConfig(num_clients=4, clients_per_round=2, rounds=3, scheme=sch,
                    lr=LrSchedule(eta=0.01), downlink_compressed=True, seed=1)
    res = run(cfg, p)
    expect = math.ceil(2 * payload_bits(sch, 32))
    assert all(log.downlink_bits == expect for log in res.logs)
    assert res.x_final.shape == (32,)
    assert np.all(np.isfinite(res.x_final))


def test_every_scheme_runs():
    p = Quadratic(dim=16, seed=5)
    schemes = [QuantizerScheme(name="identity"),
               QuantizerScheme(name="hsq", d_prime=4, m=16, s=7),
               QuantizerScheme(name="hsq", d_prime=4, m=16, s=0,
                               variant=Variant.GREEDY),
               QuantizerScheme(name="qsgd", s=7, bucket_size=8),
               QuantizerScheme(name="terngrad"),
               QuantizerScheme(name="signsgd")]
    for sch in schemes:
        cfg = FedConfig(num_clients=4, clients_per_round=2, rounds=3, scheme=sch,
                        lr=LrSchedule(eta=0.01), seed=0)
        res = run(cfg, p)
        assert len(res.logs) == 3
        assert np.all(np.isfinite(res.x_final))
        assert (res.codebook is not None) == (sch.name == "hsq")


def test_on_round_hook_sees_pre_update_iterates():
    p = Quadratic(dim=4, seed=6)
    seen = []
    cfg = _identity_cfg(rounds=3)
    run(cfg, p, on_round=lambda t, x: seen.append((t, x)))
    assert [t for t, _ in seen] == [0, 1, 2]
    np.testing.assert_array_equal(seen[0][1], p.x0)


def test_hsq_round_is_unbiased_end_to_end():
    # one client, full batch: E[x_1] = x_0 - eta * grad f(x_0), with the
    # expectation over codebook draw and quantizer randomness jointly
    p = Quadratic(dim=8, seed=7)
    eta = 0.01
    g0 = p.gradient(p.x0)
    target = p.x0 - eta * g0
    sch = QuantizerScheme(name="hsq", d_prime=4, m=16, s=0)
    draws = []
    for seed in range(1500):
        cfg = FedConfig(num_clients=1, clients_per_round=1, rounds=1,
                        local_batch=p.num_samples, scheme=sch,
                        lr=LrSchedule(eta=eta), seed=seed)
        draws.append(run(cfg, p).x_final)
    draws = np.stack(draws)
    se = draws.std(axis=0) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - target) <= 4 * se + 1e-12)


def _per_client_batches(shards, sampled, local_batch, root, t):
    # one draw per client; a shard no larger than the batch is used whole
    out = []
    for cid in sampled.tolist():
        shard = shards[cid]
        if local_batch >= shard.shape[0]:
            out.append(shard)
        else:
            pick = root.derive("batch", t, cid).choice_without_replacement(
                shard.shape[0], local_batch)
            out.append(shard[pick])
    return out


def test_grouped_batch_picks_equal_per_client_picks():
    # shard sizes differ by at most one, so one array-tag draw per size group
    # gives every sampled client of that size its own draw, row r for client r
    root = Stream(11)
    batch_root = root.derive("batch")
    for num_samples, num_clients in ((103, 10), (41, 4), (40, 4), (9, 2), (7, 7)):
        shards = partition_indices(num_samples, num_clients, root.derive("partition"))
        sizes = np.array([s.shape[0] for s in shards])
        samplings = (np.arange(num_clients), np.array([0]), np.array([num_clients - 1]),
                     np.array([0, num_clients - 1]), np.arange(1, num_clients, 2))
        for t, sampled in enumerate(samplings):
            for local_batch in (1, int(sizes.min()), int(sizes.max()), int(sizes.max()) + 3):
                batches = [shards[cid] for cid in sampled.tolist()]
                sampled_sizes = sizes[sampled]
                for size in set(sampled_sizes.tolist()):
                    if local_batch < size:
                        rows = np.flatnonzero(sampled_sizes == size)
                        picks = batch_root.derive(t, sampled[rows]).choice_without_replacement(
                            size, local_batch)
                        assert picks.shape == (len(rows), local_batch)
                        for r, pick in zip(rows.tolist(), picks):
                            batches[r] = shards[sampled[r]][pick]
                expected = _per_client_batches(shards, sampled, local_batch, root, t)
                assert len(batches) == len(expected)
                for got, want in zip(batches, expected):
                    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [1.5, True, np.float64(3.0), "4"],
                         ids=["float", "bool", "numpy-float", "str"])
def test_every_integer_rule_refuses_what_is_not_an_int(bad):
    # s = 1.5 used to pass the hsq rule and end in an AttributeError in the bit
    # accounting, and compress returned levels=1.5 on a grid [0, 0.5, 1.5]
    sch = QuantizerScheme(name="hsq", d_prime=16, m=256, s=bad)
    assert sch.violations() == [f"s: must be an int, got {bad!r}"]
    with pytest.raises(ConfigError, match="s: must be an int"):
        payload_bits(sch, 64)
    with pytest.raises(ConfigError, match="d: must be an int"):
        payload_bits(QuantizerScheme(name="hsq", d_prime=16, m=256, s=63), bad)
    cb = generate(CodebookMethod.SOB, 4, 4, seed=0)
    with pytest.raises(ValueError, match="s: must be an int"):
        compress(np.ones(4), cb, bad, Variant.UNBIASED, Stream(0))
    for name, args in (("d_prime", (bad, 4, 0)), ("m", (4, bad, 0)), ("seed", (4, 4, bad))):
        with pytest.raises(InvalidShape, match=f"{name}: must be an int"):
            generate(CodebookMethod.SOB, *args)


def test_numpy_integers_pass_the_integer_rules():
    sch = QuantizerScheme(name="hsq", d_prime=np.int64(16), m=np.uint16(256), s=np.int8(63))
    assert sch.violations() == []
    assert payload_bits(sch, np.int64(64)) == payload_bits(QuantizerScheme("hsq", 16, 256, 63), 64)
    assert payload_bits(QuantizerScheme("qsgd", s=np.int64(15)), 512) == 512 * 5 + 32
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, np.int64(4), np.int64(8), np.uint64(3))
    g = Stream(4).normals(10)
    want = encode_frame(compress(g, cb, 7, Variant.UNBIASED, Stream(5)))
    for s in (np.int64(7), np.uint64(7)):
        assert encode_frame(compress(g, cb, s, Variant.UNBIASED, Stream(5))) == want


@pytest.mark.parametrize("variant,s", itertools.product(Variant, (0, 1, 63)))
def test_hsq_step_is_decode_of_compress(variant, s):
    # the simulator's per-client hsq result is decode(compress(...)) on the same
    # stream, bit for bit: sign of zero included, all-zero and -0.0 segments too
    sch = QuantizerScheme(name="hsq", d_prime=16, m=256, s=s, variant=variant)
    cb = SCHEMES["hsq"].codebook(sch, 3)
    root = Stream(2024).derive(variant.value, s)
    for d in (1, 15, 16, 17, 48, 64, 1000):
        n_seg = -(-d // 16)
        g = root.derive("g", d).normals(d) * np.repeat(
            np.exp2(np.floor(root.derive("scale", d).uniforms(n_seg) * 21) - 10), 16)[:d]
        zero, neg_zero, mixed = g.copy(), g.copy(), g.copy()
        zero[16 * (n_seg // 2):16 * (n_seg // 2 + 1)] = 0.0
        neg_zero[16 * (n_seg - 1):] = -0.0
        mixed[::3] = -0.0
        for k, x in enumerate((g, zero, neg_zero, mixed, np.full(d, -0.0))):
            stream = root.derive("q", d, k)
            got = SCHEMES["hsq"].step(x, sch, cb, stream)
            want = decode(compress(x, cb, s, variant, stream), cb)
            assert got.tobytes() == want.tobytes(), (d, k)


def test_running_sum_mean_equals_np_mean():
    # summing decoded gradients one by one from +0.0, in client order, and
    # dividing by their count is np.mean over the stacked rows, bit for bit
    gen = np.random.default_rng(12)
    for n, d in ((1, 9), (2, 7), (3, 1), (10, 5508), (7, 33)):
        for _ in range(4):
            m = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-300, 301, (n, d))
            m[gen.random((n, d)) < 0.2] = -0.0
            m[gen.random((n, d)) < 0.1] = 0.0
            m[:, 0] = -0.0  # a column of negative zeros only
            m[:, -1] = 1e308  # a column whose sum overflows when n > 1
            rows = list(m)
            with np.errstate(over="ignore"):
                total = np.zeros(d)
                for row in rows:
                    total += row
                expected = np.mean(rows, axis=0)
            assert (total / n).tobytes() == expected.tobytes()


def test_simulator_and_validators_leave_numpy_ma_unimported():
    # the first np.unique call imports numpy.ma, which adds ~1.25 MiB to peak
    # RSS, as much as the benchmark allows a simulator workload to grow
    path = [str(Path(hsq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = ("import sys\n"
            "from hsq import fedsim, metrics, problems\n"
            "cfg = fedsim.FedConfig(num_clients=5, clients_per_round=3, rounds=3, local_batch=4,\n"
            "                       scheme=fedsim.QuantizerScheme(name='qsgd', s=15),\n"
            "                       lr=fedsim.LrSchedule(eta=0.5), seed=0)\n"
            "fedsim.run(cfg, problems.TinyMLP((16, 8, 4), seed=1, num_samples=37))\n"
            "metrics.run_validator_suite(0)\n"
            "sys.exit('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# CSV rendering


def test_logs_to_csv_layout():
    logs = [RoundLog(round=1, loss=0.5, grad_norm_sq=0.25, uplink_bits=100,
                     downlink_bits=200, sampled_clients=[0, 1]),
            RoundLog(round=2, loss=0.125, grad_norm_sq=0.0625, uplink_bits=100,
                     downlink_bits=200, sampled_clients=[1, 2])]
    text = logs_to_csv(logs)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "1,0.5,0.25,100,200,100"
    assert lines[2] == "2,0.125,0.0625,100,200,200"
    assert text.endswith("\n")


def test_logs_to_csv_roundtrips_full_precision():
    val = 1 / 3
    text = logs_to_csv([RoundLog(1, val, val, 1, 1, [0])])
    cell = text.strip().split("\n")[1].split(",")[1]
    assert float(cell) == val


# SHA-256 of logs_to_csv for a short seeded Logistic(dim=48) run per scheme,
# recorded before the scheme table replaced the per-scheme client loop. A
# refactor of the simulator or of any compressor must leave these unchanged.
_HSQ_UNBIASED = QuantizerScheme(name="hsq", d_prime=16, m=256, s=63, variant=Variant.UNBIASED)
_PINNED_RUNS = {
    "identity": (QuantizerScheme(name="identity"), False,
                 "cbe145484a3c1f86282af5ae94e086f36a2a92f09c229a57fa87eebfc31fa84e"),
    "hsq-unbiased-s63": (_HSQ_UNBIASED, False,
                         "f391b78ffd3685068150a5f3a1df7e5695b82d3682178688d5b971ca8fee3819"),
    "hsq-greedy-s0": (QuantizerScheme(name="hsq", d_prime=10, m=32, s=0, variant=Variant.GREEDY),
                      False, "5c70579d985b06e33c40ff3207c3b40077d3b521760bbb890ddfbea25b52eada"),
    "qsgd": (QuantizerScheme(name="qsgd", s=15, bucket_size=32), False,
             "65d54c3ff013cc6dec8201b7aac1c311206de9c0154ddb113b1075a1b3224b54"),
    "terngrad": (QuantizerScheme(name="terngrad"), False,
                 "186e90a8acc07a3a38ee85ef7daad6229725010e5cb26633349f9256dceac853"),
    "signsgd": (QuantizerScheme(name="signsgd"), False,
                "abdf66e8541a60244d52ead228e998197326fe0dde1d58115d3a2abb08a6d226"),
    "hsq-downlink": (_HSQ_UNBIASED, True,
                     "54d822e349705199d13909b84e901a15d3cfe52f26a8ee7d045b5f636a12f4b5"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_RUNS))
def test_scheme_csv_digest_pinned(case):
    scheme, downlink, digest = _PINNED_RUNS[case]
    cfg = FedConfig(num_clients=20, clients_per_round=5, rounds=20, local_batch=4,
                    scheme=scheme, lr=LrSchedule(eta=0.1), downlink_compressed=downlink,
                    seed=3)
    csv = logs_to_csv(run(cfg, Logistic(dim=48, seed=5)).logs)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


# The same over 203 samples in 20 shards, three of 11 and seventeen of 10,
# recorded before batch picks were drawn per shard-size group: with a batch
# of 4 both sizes draw, with 10 the short shards are used whole.
_PINNED_UNEVEN_RUNS = {
    "qsgd-batch4": (QuantizerScheme(name="qsgd", s=15, bucket_size=32), False, 4,
                    "e2305e76d723e7af7127704ad57d1486136e5931bdd905171497d3b7d21e1d27"),
    "qsgd-batch10": (QuantizerScheme(name="qsgd", s=15, bucket_size=32), False, 10,
                     "bbf940df2f1558931f61fe775bb4dcb8fe9d611f4f8c97a272a802946c6aba4a"),
    "hsq-batch10": (_HSQ_UNBIASED, False, 10,
                    "afeccac5a76efa4008da39504bd7d97acc3e783bef2d1ef6668da82f6db61765"),
    "hsq-downlink-batch4": (_HSQ_UNBIASED, True, 4,
                            "9ca9fe506c37a51235a6d32180d468871e34d810825959f3518f1e51447877e8"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_UNEVEN_RUNS))
def test_uneven_shard_csv_digest_pinned(case):
    scheme, downlink, local_batch, digest = _PINNED_UNEVEN_RUNS[case]
    cfg = FedConfig(num_clients=20, clients_per_round=5, rounds=20, local_batch=local_batch,
                    scheme=scheme, lr=LrSchedule(eta=0.1), downlink_compressed=downlink,
                    seed=3)
    csv = logs_to_csv(run(cfg, Logistic(dim=48, seed=5, num_samples=203)).logs)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


# The same for TinyMLP (16, 64, 64, 4), d = 5,508: qsgd's default 512-long
# buckets end in a 388-long tail. Recorded before the simulator took its
# per-round loss and gradient from one forward pass.
_PINNED_MLP_RUNS = {
    "qsgd": (QuantizerScheme(name="qsgd", s=15),
             "2ca3345ead9c4aa07797f4976ff86654106d888b49ba10a9353bf417419e3e26"),
    "hsq-unbiased-s63": (_HSQ_UNBIASED,
                         "6782bc7c0f2ab922085ff8a72c1394de4e164fcb835c64a2c3447b235ec5fbaa"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_MLP_RUNS))
def test_mlp_csv_digest_pinned(case):
    scheme, digest = _PINNED_MLP_RUNS[case]
    cfg = FedConfig(num_clients=8, clients_per_round=3, rounds=6, local_batch=16,
                    scheme=scheme, lr=LrSchedule(eta=0.5), seed=4)
    csv = logs_to_csv(run(cfg, TinyMLP((16, 64, 64, 4), seed=5, num_samples=256)).logs)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest

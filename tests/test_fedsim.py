import hashlib
import itertools
import math

import numpy as np
import pytest

from hsq.codebook import CodebookMethod, generate
from hsq.errors import ConfigError
from hsq.fedsim import (CSV_COLUMNS, LR_KINDS, FedConfig, LrSchedule, QuantizerScheme,
                        RoundLog, curly_l, logs_to_csv, lr_theorem1,
                        lr_theorem3, partition_indices, run,
                        theorem1_gap_bound, vq_bound)
from hsq.problems import Logistic, Quadratic
from hsq.quantizers import Variant
from hsq.rng import Stream
from hsq.wire import SCHEMES, compression_ratio, payload_bits


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
    with pytest.raises(ValueError):
        curly_l(2.0, 0, 64, 8)


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


def test_vq_bound_rejects_negative():
    cb = generate(CodebookMethod.SOB, 4, 4, seed=0)
    with pytest.raises(ValueError):
        vq_bound(8, cb, 0, -1.0)


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


def test_config_hsq_m_smaller_than_d_prime():
    sch = QuantizerScheme(name="hsq", d_prime=16, m=8, s=0)
    assert any("must be >= d_prime" in m for m in sch.violations())


def test_theorem1_zero_radius_is_a_violation():
    lr = LrSchedule(kind="theorem1", smoothness=1.0, radius=0.0, vq=1.0)
    assert [v.split(":")[0] for v in lr.violations()] == ["lr.radius"]


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_accounting_and_config_apply_one_rule_per_parameter(name):
    # payload_bits raises exactly when the config names a parameter, and
    # its message names the same parameters
    grid = (None, -1, 0, 1, 4, 16)
    for d_prime, m, s, bucket_size in itertools.product(grid, grid, grid, (0, 1, 512)):
        params = dict(d_prime=d_prime, m=m, s=s, bucket_size=bucket_size)
        named = [v.split(":")[0].removeprefix("scheme.")
                 for v in QuantizerScheme(name=name, **params).violations()]
        if not named:
            assert payload_bits(name, 64, **params) > 0
            assert compression_ratio(name, **params) > 0
            continue
        for call in (lambda: payload_bits(name, 64, **params),
                     lambda: compression_ratio(name, **params)):
            with pytest.raises(ValueError) as exc:
                call()
            listed = str(exc.value).split("accounting: ", 1)[1].split("; ")
            assert [v.split(":")[0] for v in listed] == named


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
    expect = math.ceil(5 * payload_bits("hsq", 64, d_prime=16, m=256, s=63))
    assert all(log.uplink_bits == expect for log in res.logs)
    # uncompressed downlink is n * 32d
    assert all(log.downlink_bits == 5 * 32 * 64 for log in res.logs)


def test_downlink_compressed_accounting_and_shape():
    p = Quadratic(dim=32, seed=4)
    sch = QuantizerScheme(name="hsq", d_prime=8, m=64, s=63)
    cfg = FedConfig(num_clients=4, clients_per_round=2, rounds=3, scheme=sch,
                    lr=LrSchedule(eta=0.01), downlink_compressed=True, seed=1)
    res = run(cfg, p)
    expect = math.ceil(2 * payload_bits("hsq", 32, d_prime=8, m=64, s=63))
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

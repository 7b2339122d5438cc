"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every check prints `[criterion NN] PASS|FAIL <measurements>` (visible
with `pytest -s tests/test_acceptance.py`) and then asserts, so the
plain pytest run also reports each criterion as its own test result.
All randomness is seeded; reruns are bit-identical.
"""

import math

import numpy as np

from hsq.codebook import CodebookMethod, generate
from hsq.fedsim import (FedConfig, LrSchedule, QuantizerScheme, compression_ratio, run,
                        theorem1_gap_bound, vq_bound)
from hsq.metrics import (check_alpha, check_unbiasedness, check_variance_bound,
                         greedy_vs_unbiased_mse, pseudo_norm_z,
                         variance_vs_clients)
from hsq.problems import Logistic, Quadratic, TinyMLP, estimate_second_moment
from hsq.quantizers import Variant
from hsq.rng import Stream
from hsq.wire import HEADER, decode_frame, encode_frame, hsq_payload_bits, random_frame


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_compression_ratios():
    """Reference compression ratios, exact to one decimal."""
    got = {
        "hsq-8": f"{compression_ratio(QuantizerScheme('hsq', 8, 256, 63)):.1f}",
        "hsq-16": f"{compression_ratio(QuantizerScheme('hsq', 16, 256, 63)):.1f}",
        "hsq-64": f"{compression_ratio(QuantizerScheme('hsq', 64, 256, 63)):.1f}",
        "terngrad": f"{compression_ratio(QuantizerScheme('terngrad')):.1f}",
        "signsgd": f"{compression_ratio(QuantizerScheme('signsgd')):.1f}",
    }
    want = {"hsq-8": "18.3", "hsq-16": "36.6", "hsq-64": "146.3",
            "terngrad": "20.2", "signsgd": "32.0"}
    ok = got == want
    assert _verdict(1, ok, f"ratios={'/'.join(got[k] for k in want)} "
                           f"expected={'/'.join(want.values())}")


def test_criterion_02_direction_unbiasedness():
    """20 gradients, d'=16 orthonormal codebook, exact norms, 1e5 draws:
    every per-coordinate z-score within +-4."""
    cb = generate(CodebookMethod.RANDOM_ROTATION, 16, 16, seed=0)
    root = Stream(2026).derive("criterion-2")
    worst = 0.0
    for i in range(20):
        g = root.derive("g", i).normals(16)
        z = check_unbiasedness("unbiased", cb, g, 100_000, root.derive("mc", i))
        worst = max(worst, float(np.max(np.abs(z))))
    ok = worst <= 4.0
    assert _verdict(2, ok, f"worst |z|={worst:.3f} over 20 gradients x 16 coords "
                           f"(limit 4.0, N=100000)")


def test_criterion_03_pseudo_norm_unbiasedness():
    """100 random rounding tuples, 1e5 draws each: decoded mean within
    4 sigma-hat/sqrt(N) of the exact pseudo-norm."""
    root = Stream(2026).derive("criterion-3")
    worst = 0.0
    for i in range(100):
        st = root.derive(i)
        bounds = np.sort(st.derive("ab").normals(2) * 5.0)
        u_min, u_max = float(bounds[0]), float(bounds[1])
        u = u_min + float(st.derive("u").uniform()) * (u_max - u_min)
        s = 1 + int(st.derive("s").uniform() * 63)
        z = pseudo_norm_z(u, u_min, u_max, s, 100_000, st.derive("mc"))
        worst = max(worst, abs(z))
    ok = worst <= 4.0
    assert _verdict(3, ok, f"worst |z|={worst:.3f} over 100 tuples (limit 4.0, N=100000)")


def test_criterion_04_variance_bound():
    """Empirical second moment of the quantized gradient stays below the
    analytic bound for 10 configs spanning s in {1,4,63}, m in {d',2d'}."""
    configs = [(4, 1, 1), (4, 1, 2), (4, 4, 1), (4, 4, 2), (4, 63, 1), (4, 63, 2),
               (8, 1, 1), (8, 4, 2), (8, 63, 1), (8, 63, 2)]
    root = Stream(2026).derive("criterion-4")
    failures, details = 0, []
    for d_prime, s, mult in configs:
        method = (CodebookMethod.RANDOM_ROTATION if mult == 1
                  else CodebookMethod.RANDOM_GAUSSIAN)
        cb = generate(method, d_prime, mult * d_prime, seed=7)
        r = check_variance_bound(cb, d=4 * d_prime, s=s, n_draws=300,
                                 rng=root.derive(d_prime, s, mult))
        failures += not r.passed
        details.append(f"d'={d_prime},s={s},m={mult}d':"
                       f"{r.empirical:.0f}<={r.bound:.0f}")
    ok = failures == 0
    assert _verdict(4, ok, f"violations={failures}/10 [{'; '.join(details)}]")


def test_criterion_05_alpha_floor():
    """(g . Q(g))^2 >= sigma_min^2/m ||g||^2 on 1e4 unit gradients per
    codebook method, exact inequality with no tolerance."""
    root = Stream(2026).derive("criterion-5")
    cases = [(CodebookMethod.SOB, 8), (CodebookMethod.RANDOM_ROTATION, 8),
             (CodebookMethod.RANDOM_GAUSSIAN, 16), (CodebookMethod.KMEANS_GAUSSIAN, 16)]
    failures, details = 0, []
    for method, m in cases:
        cb = generate(method, 8, m, seed=5)
        res = check_alpha(cb, 10_000, root.derive(method.value))
        failures += not res.passed
        details.append(f"{method.value}: worst={res.worst:.4f}>=floor={res.floor:.4f}")
    ok = failures == 0
    assert _verdict(5, ok, f"violations={failures}/4 methods x 10000 gradients "
                           f"[{'; '.join(details)}]")


def test_criterion_06_wire_roundtrip():
    """1e4 randomized frames: byte-exact re-encode and closed-form
    payload length."""
    root = Stream(2026).derive("criterion-6")
    mismatches = length_errors = 0
    for i in range(10_000):
        frame = random_frame(root.derive(i))
        blob = encode_frame(frame)
        if decode_frame(blob) != frame or encode_frame(decode_frame(blob)) != blob:
            mismatches += 1
        bits = hsq_payload_bits(frame.total_dim, frame.segment_dim,
                                frame.codeword_count, frame.levels)
        if len(blob) != HEADER.size + (bits + 7) // 8:
            length_errors += 1
    ok = mismatches == 0 and length_errors == 0
    assert _verdict(6, ok, f"roundtrip mismatches={mismatches}/10000, "
                           f"payload-length errors={length_errors}/10000")


def test_criterion_07_convex_convergence():
    """Greedy reaches f-f* <= 1e-3 on least squares within 5000 rounds;
    the unbiased mean-iterate gap under the theorem step size stays
    below R sqrt(Vq/T) + L R^2/(2T) at T in {1e2, 1e3, 1e4}."""
    p = Quadratic(dim=64, seed=7)

    greedy_scheme = QuantizerScheme(name="hsq", d_prime=8, m=64, s=0,
                                    variant=Variant.GREEDY)
    cfg = FedConfig(num_clients=1, clients_per_round=1, rounds=5000,
                    local_batch=p.num_samples, scheme=greedy_scheme,
                    lr=LrSchedule(eta=0.2), seed=0)
    losses = [log.loss for log in run(cfg, p).logs]
    hit = next((i + 1 for i, v in enumerate(losses) if v - p.f_star <= 1e-3), None)
    ok_greedy = hit is not None

    # unbiased side: a-priori per-segment second-moment bound (factor-4
    # headroom over the enumerated moment at x0 and x*), verified against
    # the whole trajectory after the fact
    seed = 11
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 64, seed)
    b_prime = 4.0 * estimate_second_moment(p, [p.x0, p.x_star], d_prime=8)
    vq = vq_bound(64, cb, s=0, b_prime=b_prime)

    def seg_moment(x):
        residual = p.A @ x - p.b
        per_sample = p.A * residual[:, None]
        seg = (per_sample.reshape(p.num_samples, 8, 8) ** 2).sum(axis=2)
        return float(seg.mean(axis=0).max())

    gap_results = []
    b_ok = True
    for rounds in (100, 1000, 10_000):
        sch = QuantizerScheme(name="hsq", d_prime=8, m=64, s=0)
        cfg = FedConfig(num_clients=1, clients_per_round=1, rounds=rounds,
                        local_batch=1, scheme=sch,
                        lr=LrSchedule(kind="theorem1", smoothness=p.smoothness,
                                      radius=p.radius, vq=vq), seed=seed)
        x_sum = np.zeros(64)
        worst_moment = [0.0]

        def on_round(t, x, x_sum=x_sum, worst_moment=worst_moment):
            x_sum += x
            worst_moment[0] = max(worst_moment[0], seg_moment(x))

        run(cfg, p, on_round=on_round)
        gap = p.objective(x_sum / rounds) - p.f_star
        bound = theorem1_gap_bound(p.smoothness, p.radius, vq, rounds)
        gap_results.append((rounds, gap, bound, gap <= bound))
        b_ok &= worst_moment[0] <= b_prime
    ok_gaps = all(r[3] for r in gap_results)
    detail = (f"greedy hit 1e-3 at round {hit}/5000; "
              + "; ".join(f"T={t}: gap={g:.2f}<=bound={b:.2f}"
                          for t, g, b, _ in gap_results)
              + f"; trajectory moment within B'={b_prime:.0f}: {b_ok}")
    ok = ok_greedy and ok_gaps and b_ok
    assert _verdict(7, ok, detail)


def test_criterion_08_greedy_vs_unbiased():
    """Greedy's quantization MSE strictly below unbiased's on 1e3
    Gaussian gradients, and a lower training loss at equal rounds on
    the two-blob MLP (mean over ten seeded runs)."""
    cb = generate(CodebookMethod.RANDOM_GAUSSIAN, 8, 64, seed=5)
    mse_greedy, mse_unbiased = greedy_vs_unbiased_mse(
        cb, 1000, Stream(2026).derive("criterion-8"))
    ok_mse = mse_greedy < mse_unbiased

    p = TinyMLP(seed=3, num_samples=256)

    def mean_final_loss(variant):
        finals = []
        for seed in range(10):
            sch = QuantizerScheme(name="hsq", d_prime=8, m=64, s=0, variant=variant)
            cfg = FedConfig(num_clients=16, clients_per_round=4, rounds=300,
                            local_batch=1, scheme=sch, lr=LrSchedule(eta=1.2),
                            seed=seed)
            finals.append(run(cfg, p).logs[-1].loss)
        return float(np.mean(finals))

    loss_greedy = mean_final_loss(Variant.GREEDY)
    loss_unbiased = mean_final_loss(Variant.UNBIASED)
    ok_mlp = loss_greedy < loss_unbiased
    ok = ok_mse and ok_mlp
    assert _verdict(8, ok, f"mse greedy={mse_greedy:.2f} < unbiased={mse_unbiased:.2f}: "
                           f"{ok_mse}; mlp loss greedy={loss_greedy:.4f} < "
                           f"unbiased={loss_unbiased:.4f}: {ok_mlp}")


def test_criterion_09_federated_logistic():
    """50 clients / 10 per round on separable logistic regression:
    hsq(16, 256, 63) lands within 2% of the uncompressed accuracy while
    sending >= 30x fewer uplink payload bits."""
    p = Logistic(dim=48, seed=5, num_samples=200)

    def final(scheme):
        cfg = FedConfig(num_clients=50, clients_per_round=10, rounds=400,
                        local_batch=4, scheme=scheme, lr=LrSchedule(eta=0.5),
                        seed=0)
        res = run(cfg, p)
        return p.accuracy(res.x_final), sum(l.uplink_bits for l in res.logs)

    acc_sgd, bits_sgd = final(QuantizerScheme(name="identity"))
    acc_hsq, bits_hsq = final(QuantizerScheme(name="hsq", d_prime=16, m=256, s=63))
    ratio = bits_sgd / bits_hsq
    ok = (acc_hsq >= acc_sgd - 0.02) and (ratio >= 30.0)
    assert _verdict(9, ok, f"accuracy sgd={acc_sgd:.4f} hsq={acc_hsq:.4f} "
                           f"(gap {acc_sgd - acc_hsq:+.4f}, limit 0.02); "
                           f"uplink ratio={ratio:.1f}x (need >=30x)")


def test_criterion_10_variance_vs_clients():
    """Averaging n independent quantizations cuts the variance like 1/n
    for n in {1, 10, 100}, within a factor 1.5."""
    cb = generate(CodebookMethod.RANDOM_ROTATION, 8, 8, seed=3)
    g = Stream(2026).derive("criterion-10", "g").normals(8)
    var = variance_vs_clients(cb, g, [1, 10, 100], n_trials=4000,
                              rng=Stream(2026).derive("criterion-10", "mc"))
    ratios = {n: var[1] / (n * var[n]) for n in (10, 100)}
    ok = all(1 / 1.5 <= r <= 1.5 for r in ratios.values())
    assert _verdict(10, ok, f"var={{1: {var[1]:.3f}, 10: {var[10]:.4f}, "
                            f"100: {var[100]:.5f}}}; 1/n ratios "
                            f"n=10: {ratios[10]:.3f}, n=100: {ratios[100]:.3f} "
                            f"(band [0.667, 1.5])")

"""Deterministic federated SGD simulator.

One coordinator holds the model; every round it samples a subset of
clients without replacement, each computes a stochastic gradient on its
own data shard, compresses it with the configured scheme, and the
coordinator averages the decoded gradients and takes an SGD step.
Optionally the model delta going back out is itself compressed, in
which case the coordinator applies the decoded delta to its own state
too so that everyone keeps bit-identical models.

Everything random derives from the single run seed: shard assignment,
per-round client sampling, per-(round, client) batch and quantizer
streams. Clients are evaluated and aggregated in ascending client-id
order, so results do not depend on evaluation schedule, and two runs
with the same config produce bit-identical logs.

SCHEMES is the one table of uplink compressors: for each, the rule its
QuantizerScheme parameters obey, its bit accounting (payload_bits,
compression_ratio), its codebook and the per-client step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baselines import (QSGD_BUCKET_SIZE, TERNGRAD_SCALER_BITS, compress_qsgd, compress_sign,
                        compress_terngrad, decode_qsgd, decode_sign, decode_terngrad,
                        qsgd_dense_bits, sign_bits, ternary_bits)
from .codebook import (_U32_MAX, Codebook, CodebookMethod, generate, generate_violations,
                       seed_violations)
from .errors import (ConfigError, enum_violations, out_of_range, real_violations, refuse,
                     refuse_argument)
from .problems import Problem
from .quantizers import CompressedGradient, Variant, _decoded, compress, level_violations
from .rng import Stream
from .wire import HEADER_BITS, hsq_payload_bits, length_violations

CSV_COLUMNS = ("round", "loss", "grad_norm_sq", "uplink_bits",
               "downlink_bits", "cumulative_bits")


@dataclass(frozen=True)
class QuantizerScheme:
    """Uplink compressor selection plus its parameters.

    SCHEMES[name].rule says which parameters the scheme reads and their
    bounds; it ignores the others. variant and codebook_method apply to
    hsq, and s doubles as the level count for qsgd. violations() leaves
    out "scheme.".
    """

    name: str = "identity"
    d_prime: int | None = None
    m: int | None = None
    s: int | None = None
    variant: Variant = Variant.UNBIASED
    codebook_method: CodebookMethod = CodebookMethod.RANDOM_GAUSSIAN
    bucket_size: int = QSGD_BUCKET_SIZE

    def violations(self) -> list[str]:
        if not isinstance(self.name, str) or self.name not in SCHEMES:
            return [f"name: {self.name!r} not one of {tuple(SCHEMES)}"]
        return SCHEMES[self.name].rule(self)


@dataclass(frozen=True)
class Scheme:
    """Everything the package knows about one uplink compressor; p is a QuantizerScheme.

    rule(p) is one "field: problem" message per parameter the scheme reads
    that is missing or out of range. payload_bits(p, d) is the cost of a
    length-d gradient without the fixed header_bits, and natural_d(p) the
    length compression_ratio uses when d is omitted. codebook(p, seed)
    builds what step(g, p, cb, rng) needs to compress one client gradient
    and return its decoding; downlink allows compressed model updates.
    """

    payload_bits: Callable[[QuantizerScheme, int], float]
    step: Callable[..., np.ndarray]
    rule: Callable[[QuantizerScheme], list[str]] = lambda p: []
    header_bits: int = 0
    natural_d: Callable[[QuantizerScheme], int] = lambda p: 1
    codebook: Callable[[QuantizerScheme, int], Codebook | None] = lambda p, seed: None
    downlink: bool = False


def _hsq_step(cg: CompressedGradient, cb: Codebook) -> np.ndarray:
    """decode(cg, cb) without its checks, which a code compress just built passes."""
    return _decoded(cg.indices, cg.norms, cb, cg.total_dim)


SCHEMES = {
    "identity": Scheme(payload_bits=lambda p, d: 32.0 * d, step=lambda g, *_: g),
    "hsq": Scheme(payload_bits=lambda p, d: hsq_payload_bits(d, p.d_prime, p.m, p.s),
                  rule=lambda p: (generate_violations(p.codebook_method, p.d_prime, p.m)
                                  + enum_violations("variant", p.variant, Variant)
                                  + level_violations(p.s)),
                  header_bits=HEADER_BITS, natural_d=lambda p: p.d_prime,
                  codebook=lambda p, seed: generate(p.codebook_method, p.d_prime, p.m, seed),
                  downlink=True,
                  step=lambda g, p, cb, rng: _hsq_step(compress(g, cb, p.s, p.variant, rng), cb)),
    "qsgd": Scheme(payload_bits=lambda p, d: qsgd_dense_bits(d, p.s, p.bucket_size),
                   rule=lambda p: (out_of_range("s", p.s, 1, _U32_MAX)
                                   + out_of_range("bucket_size", p.bucket_size, 1, _U32_MAX)),
                   natural_d=lambda p: p.bucket_size,
                   step=lambda g, p, cb, rng: decode_qsgd(
                       compress_qsgd(g, p.s, rng, p.bucket_size))),
    "terngrad": Scheme(payload_bits=lambda p, d: ternary_bits(d),
                       header_bits=TERNGRAD_SCALER_BITS,
                       step=lambda g, p, cb, rng: decode_terngrad(compress_terngrad(g, rng))),
    "signsgd": Scheme(payload_bits=lambda p, d: sign_bits(d),
                      step=lambda g, *_: decode_sign(compress_sign(g))),
}


def payload_bits(scheme: QuantizerScheme, d: int) -> float:
    """Uplink payload bits for one gradient of length d under a scheme.

    Excludes fixed per-message overhead (frame header, TernGrad's
    scaler) so that the d'-segment cost structure is visible; QSGD's
    per-bucket norms stay in because they grow with d. May be
    fractional: a ternary coordinate costs log2(3) bits.

    Raises:
        ConfigError: d or the scheme's parameters break their rules.
    """
    refuse(length_violations(d) + scheme.violations())
    return float(SCHEMES[scheme.name].payload_bits(scheme, d))


def compression_ratio(scheme: QuantizerScheme, d: int | None = None,
                      include_header: bool = False) -> float:
    """Raw-f32 bits over compressed bits for one gradient.

    When d is omitted a scheme-natural length is used (one segment for
    hsq, one bucket for qsgd, 1 otherwise), which yields the asymptotic
    per-coordinate ratio since the excluded header is the only
    d-dependent distortion; include_header amortizes it over one message.
    """
    if d is None:
        refuse(scheme.violations())
        d = SCHEMES[scheme.name].natural_d(scheme)
    bits = payload_bits(scheme, d)
    if include_header:
        bits += SCHEMES[scheme.name].header_bits
    return 32.0 * d / bits


# kind -> (recipe(rounds, *params), {param: (least, strict)}), params in recipe order, each a
# real > least (>= least if not strict); a recipe resolves without raising inside the bounds.
LR_KINDS = {
    "constant": (lambda rounds, eta: float(eta), {"eta": (0, True)}),
    "theorem1": (lambda rounds, smoothness, radius, vq: lr_theorem1(smoothness, radius, vq, rounds),
                 {"smoothness": (0, True), "radius": (0, True), "vq": (0, False)}),
    "theorem3": (lambda rounds, curly_l: lr_theorem3(rounds, curly_l), {"curly_l": (0, True)}),
}


def _bound_violations(kind: str, params: dict) -> list[str]:
    """The rule of an lr kind's parameters: one "name: problem" per value outside its bounds."""
    return [v for n, (least, strict) in LR_KINDS[kind][1].items()
            for v in real_violations(n, params[n], least, strict)]


@dataclass(frozen=True)
class LrSchedule:
    """Constant step size, chosen directly or by a convergence recipe.

    kind "constant" uses eta as given; "theorem1" computes
    1/(L + sqrt(V_q T)/R) from (smoothness, radius, vq) and the round
    count; "theorem3" computes 1/sqrt(T * curly_l).
    """

    kind: str = "constant"
    eta: float | None = None
    smoothness: float | None = None
    radius: float | None = None
    vq: float | None = None
    curly_l: float | None = None

    def violations(self) -> list[str]:
        if not isinstance(self.kind, str) or self.kind not in LR_KINDS:
            return [f"lr.kind: {self.kind!r} not one of {tuple(LR_KINDS)}"]
        return [f"lr.{v}" for v in _bound_violations(self.kind, vars(self))]

    def resolve(self, rounds: int) -> float:
        recipe, params = LR_KINDS[self.kind]
        return recipe(rounds, *(getattr(self, n) for n in params))


@dataclass(frozen=True)
class FedConfig:
    num_clients: int = 50
    clients_per_round: int = 10
    rounds: int = 100
    local_batch: int = 1
    scheme: QuantizerScheme = field(default_factory=QuantizerScheme)
    lr: LrSchedule = field(default_factory=lambda: LrSchedule(eta=0.1))
    downlink_compressed: bool = False
    seed: int = 0

    def violations(self) -> list[str]:
        out = (count_violations(num_clients=self.num_clients, local_batch=self.local_batch)
               + rounds_violations(self.rounds) + seed_violations(self.seed))
        # num_clients bounds clients_per_round only where it is an int
        most = (None if out_of_range("num_clients", self.num_clients, None)
                else max(self.num_clients, 1))
        out += out_of_range("clients_per_round", self.clients_per_round, 1, most)
        scheme = self.scheme
        if not isinstance(scheme, QuantizerScheme):
            out.append(f"scheme: must be a QuantizerScheme, got {scheme!r}")
            scheme = QuantizerScheme()  # the rest is judged as the CLI reads a non-object scheme
        out.extend(f"scheme.{v}" for v in scheme.violations())
        out.extend(self.lr.violations() if isinstance(self.lr, LrSchedule)
                   else [f"lr: must be an LrSchedule, got {self.lr!r}"])
        if type(self.downlink_compressed) is not bool:
            out.append(f"downlink_compressed: must be a bool, got {self.downlink_compressed!r}")
        elif (self.downlink_compressed and isinstance(scheme.name, str)
              and scheme.name in SCHEMES and not SCHEMES[scheme.name].downlink):
            out.append(f"downlink_compressed: scheme {scheme.name!r} has no "
                       "compressed downlink")
        return out

    def validate(self) -> None:
        refuse(self.violations())


def count_violations(**counts: int) -> list[str]:
    """The count rule: one "name: problem" message per count below 1."""
    return [v for name, n in counts.items() for v in out_of_range(name, n, 1)]


# Every round count up to 2^53 is an exact float, so the step-size recipes never overflow
MAX_ROUNDS = 2 ** 53


def rounds_violations(rounds: int) -> list[str]:
    """The rule for a round count: an int in [1, MAX_ROUNDS]."""
    return out_of_range("rounds", rounds, 1, MAX_ROUNDS)


@dataclass
class RoundLog:
    round: int
    loss: float
    grad_norm_sq: float
    uplink_bits: int
    downlink_bits: int
    sampled_clients: list[int]


@dataclass
class SimResult:
    logs: list[RoundLog]
    x_final: np.ndarray
    eta: float
    codebook: Codebook | None


def lr_theorem1(smoothness: float, radius: float, vq: float, rounds: int) -> float:
    """Constant step size 1/(L + sqrt(V_q * T) / R)."""
    refuse_argument(_bound_violations("theorem1", dict(smoothness=smoothness, radius=radius, vq=vq))
                    + rounds_violations(rounds))
    return 1.0 / (smoothness + math.sqrt(vq * rounds) / radius)


def theorem1_gap_bound(smoothness: float, radius: float, vq: float, rounds: int) -> float:
    """Optimality-gap guarantee R*sqrt(V_q/T) + L*R^2/(2T) for the mean iterate."""
    refuse_argument(_bound_violations("theorem1", dict(smoothness=smoothness, radius=radius, vq=vq))
                    + rounds_violations(rounds))
    return radius * math.sqrt(vq / rounds) + smoothness * (radius * radius) / (2 * rounds)


def curly_l(smoothness: float, s: int, d: int, d_prime: int) -> float:
    """Effective smoothness L*(1 + 4/s)*d/d'. Undefined for s = 0."""
    refuse_argument(real_violations("smoothness", smoothness, 0, strict=True)
                    + (level_violations(s) or out_of_range("s", s, 1)) + length_violations(d)
                    + out_of_range("d_prime", d_prime, 1, _U32_MAX))
    return smoothness * (1.0 + 4.0 / s) * d / d_prime


def lr_theorem3(rounds: int, curly_l_value: float) -> float:
    """Constant step size 1/sqrt(T * curly_l), paired with batch size sqrt(T)."""
    refuse_argument(_bound_violations("theorem3", {"curly_l": curly_l_value})
                    + rounds_violations(rounds))
    return 1.0 / math.sqrt(rounds * curly_l_value)


def vq_bound(d: int, cb: Codebook, s: int, b_prime: float, u_range: float = 0.0) -> float:
    """Second-moment bound ceil(d/d')*(m*sigma1(pinv)^2*B' + u_range^2/s), one term per segment.

    The norm-quantization term vanishes in exact-norm mode (s = 0),
    where u_range is ignored.
    """
    refuse_argument(length_violations(d) + level_violations(s)
                    + real_violations("b_prime", b_prime, 0)
                    + real_violations("u_range", u_range, 0))
    sigma1_pinv_sq = 1.0 / cb.sigma_min ** 2
    norm_term = (u_range * u_range) / s if s >= 1 else 0.0
    return -(-d // cb.dim) * (cb.count * sigma1_pinv_sq * b_prime + norm_term)


def partition_indices(num_samples: int, num_clients: int, stream: Stream) -> list[np.ndarray]:
    """Shuffle sample indices and deal them into near-equal shards."""
    if num_samples < num_clients:
        raise ConfigError([f"num_clients: {num_clients} clients need at least "
                           f"that many samples, got {num_samples}"])
    # array_split deals num_samples % num_clients shards one sample more, first
    return [np.sort(s) for s in np.array_split(stream.permutation(num_samples), num_clients)]


def run(cfg: FedConfig, problem: Problem,
        on_round: Callable[[int, np.ndarray], None] | None = None) -> SimResult:
    """Simulate cfg.rounds federated rounds on the given problem.

    on_round, when given, is called with (t, x_t) before each round's
    update (t = 0..T-1), which is how mean-iterate diagnostics hook in
    without RoundLog having to carry full parameter vectors.

    RoundLog t (1-based) records the post-update iterate x_t: its full
    loss and squared gradient norm, the summed uplink/downlink payload
    bits of the round, and which clients took part.
    """
    cfg.validate()
    sch = cfg.scheme
    root = Stream(cfg.seed)
    shards = partition_indices(problem.num_samples, cfg.num_clients, root.derive("partition"))

    cb = SCHEMES[sch.name].codebook(sch, cfg.seed)
    step = SCHEMES[sch.name].step

    d = problem.dim
    per_client = payload_bits(sch, d)
    uplink_per_round = int(math.ceil(cfg.clients_per_round * per_client))
    downlink_per_client = per_client if cfg.downlink_compressed else 32.0 * d
    downlink_per_round = int(math.ceil(cfg.clients_per_round * downlink_per_client))

    x = np.array(problem.x0, dtype=np.float64, copy=True)
    eta = cfg.lr.resolve(cfg.rounds)
    logs: list[RoundLog] = []
    # derive folds its tags in order, so derive("batch").derive(t, cid) is
    # derive("batch", t, cid): each tag prefix is derived once per run
    sample_root, batch_root, quantize_root = (root.derive(tag)
                                              for tag in ("sample", "batch", "quantize"))
    shard_sizes = np.array([shard.shape[0] for shard in shards])

    for t in range(cfg.rounds):
        if on_round is not None:
            on_round(t, x.copy())
        sampled = sample_root.derive(t).choice_without_replacement(
            cfg.num_clients, cfg.clients_per_round)

        # A shard no larger than the batch is used whole. Shard sizes differ by
        # at most one, so each size group draws its picks at once: row r of
        # the draw is derive(t, sampled[rows[r]])'s own.
        batches = [shards[cid] for cid in sampled.tolist()]
        sampled_sizes = shard_sizes[sampled]
        for size in set(sampled_sizes.tolist()):
            if cfg.local_batch < size:
                rows = np.flatnonzero(sampled_sizes == size)
                picks = batch_root.derive(t, sampled[rows]).choice_without_replacement(
                    size, cfg.local_batch)
                for r, pick in zip(rows.tolist(), picks):
                    batches[r] = batches[r][pick]

        # a running sum from +0.0 in client order is np.mean over the stacked
        # decoded gradients bit for bit, without holding the stack
        total = np.zeros(d)
        for cid, batch in zip(sampled.tolist(), batches):
            g = problem.stochastic_gradient(x, batch)
            total += step(g, sch, cb, quantize_root.derive(t, cid))
        g_bar = total / len(batches)

        if cfg.downlink_compressed:
            # validate() allows this only where the scheme's table entry sets downlink
            x = x + step(-eta * g_bar, sch, cb, root.derive("downlink", t))
        else:
            x = x - eta * g_bar

        loss, full_grad = problem.loss_and_gradient(x)
        logs.append(RoundLog(round=t + 1,
                             loss=loss,
                             grad_norm_sq=float(full_grad @ full_grad),
                             uplink_bits=uplink_per_round,
                             downlink_bits=downlink_per_round,
                             sampled_clients=[int(c) for c in sampled]))
    return SimResult(logs=logs, x_final=x, eta=eta, codebook=cb)


def logs_to_csv(logs: list[RoundLog]) -> str:
    """Render logs as CSV with a running uplink total, full float precision."""
    lines = [",".join(CSV_COLUMNS)]
    total = 0
    for log in logs:
        total += log.uplink_bits
        lines.append(f"{log.round},{log.loss!r},{log.grad_norm_sq!r},"
                     f"{log.uplink_bits},{log.downlink_bits},{total}")
    return "\n".join(lines) + "\n"

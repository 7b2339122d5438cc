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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import baselines
from .codebook import Codebook, CodebookMethod
from .errors import ConfigError
from .problems import Problem
from .quantizers import Variant
from .rng import Stream
from .wire import SCHEMES, payload_bits

CSV_COLUMNS = ("round", "loss", "grad_norm_sq", "uplink_bits",
               "downlink_bits", "cumulative_bits")


@dataclass(frozen=True)
class QuantizerScheme:
    """Uplink compressor selection plus its parameters.

    wire.SCHEMES[name].params lists the parameters the scheme reads and
    their bounds; it ignores the others. variant and codebook_method
    apply to hsq, and s doubles as the level count for qsgd.
    """

    name: str = "identity"
    d_prime: int | None = None
    m: int | None = None
    s: int | None = None
    variant: Variant = Variant.UNBIASED
    codebook_method: CodebookMethod = CodebookMethod.RANDOM_GAUSSIAN
    bucket_size: int = baselines.QSGD_BUCKET_SIZE

    def violations(self) -> list[str]:
        if self.name not in SCHEMES:
            return [f"scheme.name: {self.name!r} not one of {tuple(SCHEMES)}"]
        return [f"scheme.{v}" for v in SCHEMES[self.name].violations(vars(self))]


# kind -> (recipe(rounds, *params), {param: (comparison, bound)}), params in
# recipe order; a recipe resolves without raising on any values inside the bounds.
LR_KINDS = {
    "constant": (lambda rounds, eta: float(eta), {"eta": (">", 0)}),
    "theorem1": (lambda rounds, smoothness, radius, vq: lr_theorem1(smoothness, radius, vq, rounds),
                 {"smoothness": (">", 0), "radius": (">", 0), "vq": (">=", 0)}),
    "theorem3": (lambda rounds, curly_l: lr_theorem3(rounds, curly_l), {"curly_l": (">", 0)}),
}
_COMPARE = {">": operator.gt, ">=": operator.ge}


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
        if self.kind not in LR_KINDS:
            return [f"lr.kind: {self.kind!r} not one of {tuple(LR_KINDS)}"]
        return [f"lr.{n}: {self.kind} schedule needs {n} {op} {bound}, got {getattr(self, n)!r}"
                for n, (op, bound) in LR_KINDS[self.kind][1].items()
                if getattr(self, n) is None or not _COMPARE[op](getattr(self, n), bound)]

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
        out = [f"{n}: must be >= {least}, got {getattr(self, n)}"
               for n, least in (("num_clients", 1), ("rounds", 1), ("local_batch", 1),
                                ("seed", 0)) if getattr(self, n) < least]
        if not 1 <= self.clients_per_round <= max(self.num_clients, 1):
            out.append(f"clients_per_round: must be in [1, num_clients], "
                       f"got {self.clients_per_round}")
        out.extend(self.scheme.violations())
        out.extend(self.lr.violations())
        if (self.downlink_compressed and self.scheme.name in SCHEMES
                and not SCHEMES[self.scheme.name].downlink):
            out.append(f"downlink_compressed: scheme {self.scheme.name!r} has no "
                       "compressed downlink")
        return out

    def validate(self) -> None:
        v = self.violations()
        if v:
            raise ConfigError(v)


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
    if radius <= 0 or rounds < 1 or smoothness <= 0 or vq < 0:
        raise ValueError("need radius > 0, rounds >= 1, smoothness > 0, vq >= 0")
    return 1.0 / (smoothness + math.sqrt(vq * rounds) / radius)


def theorem1_gap_bound(smoothness: float, radius: float, vq: float, rounds: int) -> float:
    """Optimality-gap guarantee R*sqrt(V_q/T) + L*R^2/(2T) for the mean iterate."""
    return radius * math.sqrt(vq / rounds) + smoothness * radius ** 2 / (2 * rounds)


def curly_l(smoothness: float, s: int, d: int, d_prime: int) -> float:
    """Effective smoothness L*(1 + 4/s)*d/d'. Undefined for s = 0."""
    if s < 1:
        raise ValueError("the effective smoothness constant needs s >= 1")
    return smoothness * (1.0 + 4.0 / s) * d / d_prime

def lr_theorem3(rounds: int, curly_l_value: float) -> float:
    """Constant step size 1/sqrt(T * curly_l), paired with batch size sqrt(T)."""
    if rounds < 1 or curly_l_value <= 0:
        raise ValueError("need rounds >= 1 and curly_l > 0")
    return 1.0 / math.sqrt(rounds * curly_l_value)


def vq_bound(d: int, cb: Codebook, s: int, b_prime: float, u_range: float = 0.0) -> float:
    """Second-moment bound (d/d')*(m*sigma1(pinv)^2*B' + u_range^2/s).

    The norm-quantization term vanishes in exact-norm mode (s = 0),
    where u_range is ignored.
    """
    if b_prime < 0 or u_range < 0:
        raise ValueError("b_prime and u_range must be nonnegative")
    sigma1_pinv_sq = 1.0 / cb.sigma_min ** 2
    norm_term = (u_range ** 2) / s if s >= 1 else 0.0
    return (d / cb.dim) * (cb.count * sigma1_pinv_sq * b_prime + norm_term)


def partition_indices(num_samples: int, num_clients: int, stream: Stream) -> list[np.ndarray]:
    """Shuffle sample indices and deal them into near-equal shards."""
    if num_samples < num_clients:
        raise ConfigError([f"num_clients: {num_clients} clients need at least "
                           f"that many samples, got {num_samples}"])
    perm = stream.permutation(num_samples)
    base, extra = divmod(num_samples, num_clients)
    shards, pos = [], 0
    for c in range(num_clients):
        size = base + (1 if c < extra else 0)
        shards.append(np.sort(perm[pos:pos + size]))
        pos += size
    return shards


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
    per_client = payload_bits(sch.name, d, d_prime=sch.d_prime, m=sch.m, s=sch.s,
                              bucket_size=sch.bucket_size)
    uplink_per_round = int(math.ceil(cfg.clients_per_round * per_client))
    downlink_per_client = per_client if cfg.downlink_compressed else 32.0 * d
    downlink_per_round = int(math.ceil(cfg.clients_per_round * downlink_per_client))

    x = np.array(problem.x0, dtype=np.float64, copy=True)
    eta = cfg.lr.resolve(cfg.rounds)
    logs: list[RoundLog] = []

    for t in range(cfg.rounds):
        if on_round is not None:
            on_round(t, x.copy())
        sampled = root.derive("sample", t).choice_without_replacement(
            cfg.num_clients, cfg.clients_per_round)

        decoded = []
        for cid in sampled:
            cid = int(cid)
            shard = shards[cid]
            if cfg.local_batch >= shard.shape[0]:
                batch = shard
            else:
                pick = root.derive("batch", t, cid).choice_without_replacement(
                    shard.shape[0], cfg.local_batch)
                batch = shard[pick]
            g = problem.stochastic_gradient(x, batch)
            decoded.append(step(g, sch, cb, root.derive("quantize", t, cid)))
        g_bar = np.mean(decoded, axis=0)

        if cfg.downlink_compressed:
            # validate() allows this only where the scheme's table entry sets downlink
            x = x + step(-eta * g_bar, sch, cb, root.derive("downlink", t))
        else:
            x = x - eta * g_bar

        full_grad = problem.gradient(x)
        logs.append(RoundLog(round=t + 1,
                             loss=problem.objective(x),
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

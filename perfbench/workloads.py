"""The benchmark's workloads and the checks on their outputs.

Each workload builds its state in ``setup(seed)`` and then repeats one
*unit* of work in a closed loop: the next unit starts when the previous
one and its checks have ended.

* codec-d100k: a batch of four d=100,003 gradients, one per mode in
  {unbiased, greedy} x s in {0, 63}, each through compress, encode_frame,
  decode_frame and decode, then the batch through aggregate.
* sim-logistic-hsq / sim-mlp-qsgd: one full ``fedsim.run``.
* analyze: one ``metrics.run_validator_suite``.

Inputs come from the workload seed alone; the library sees only them.
Every library call or simulator round is timed by a ``clock.Clock``, in
wall-clock and in nominal (machine-speed-corrected) seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from clock import Clock

from hsq import codebook, fedsim, metrics, problems, quantizers, rng, wire
from hsq.errors import HsqError

DEFAULT_SEED = 0

D_CODEC = 100_003
D_PRIME = 16
M_CODEC = 256
MODES = ((quantizers.Variant.UNBIASED, 0), (quantizers.Variant.UNBIASED, 63),
         (quantizers.Variant.GREEDY, 0), (quantizers.Variant.GREEDY, 63))
# Segment scales span six decades, and about one segment in fifty is all
# zero, so both the u_min/u_max range and the zero-segment path are used.
SCALE_DECADES = (-3.0, 3.0)
ZERO_SEGMENT_SHARE = 0.02


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def seeded_gradient(gen: np.random.Generator, d: int, dp: int) -> np.ndarray:
    """Gaussian gradient with per-segment scales and some all-zero segments."""
    n_seg = -(-d // dp)
    scales = 10.0 ** gen.uniform(*SCALE_DECADES, n_seg)
    scales[gen.random(n_seg) < ZERO_SEGMENT_SHARE] = 0.0
    return gen.standard_normal(d) * np.repeat(scales, dp)[:d]


@dataclass
class Unit:
    """What one unit of work produced and how long its parts took."""

    latencies_s: list[float]   # wall time of each operation (codec batch, sim round, suite)
    nominal_s: list[float]     # the same operations in nominal seconds (see clock.py)
    busy_s: float              # wall time of the unit's library calls
    digest: str                # SHA-256 of the unit's outputs
    figures: dict[str, float] = field(default_factory=dict)
    outputs: object = None


class Workload:
    name: str
    setup_reps = 51  # set-up is repeated and its median reported

    def setup(self, seed: int):
        raise NotImplementedError

    def unit(self, state, i: int, clock: Clock | None = None, tracer=None) -> Unit:
        """One unit of work, timed by ``clock`` (an uncalibrated one if None)."""
        raise NotImplementedError

    def check(self, state, i: int, unit: Unit, golden: str | None) -> tuple[int, int]:
        """(attempted, failed) for the unit's outputs."""
        raise NotImplementedError

    def fixed_checks(self, state, golden: dict) -> tuple[int, int]:
        """(attempted, failed) for checks made once per run."""
        return 0, 0

    def report(self, units: list[Unit]) -> dict:
        """The workload's own figures, as {name: (value, unit)}."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# codec-d100k


@dataclass
class CodecState:
    seed: int
    cb: codebook.Codebook
    grads: list[np.ndarray]


def check_frame(cb, cg, frame: bytes, x: np.ndarray) -> bool:
    """The frame is encode_frame(cg), re-encodes byte-for-byte after
    decode_frame, and decodes to decode(cg) exactly."""
    try:
        dec = wire.decode_frame(frame)
        return (wire.encode_frame(cg) == frame and wire.encode_frame(dec) == frame
                and np.array_equal(quantizers.decode(dec, cb), x)
                and np.array_equal(quantizers.decode(cg, cb), x))
    except HsqError:
        return False


class Codec(Workload):
    name = "codec-d100k"

    def setup(self, seed: int) -> CodecState:
        cb = codebook.generate(codebook.CodebookMethod.RANDOM_GAUSSIAN, D_PRIME, M_CODEC, seed)
        gen = np.random.default_rng(seed)
        grads = [seeded_gradient(gen, D_CODEC, D_PRIME) for _ in MODES]
        return CodecState(seed=seed, cb=cb, grads=grads)

    def unit(self, state: CodecState, i: int, clock: Clock | None = None,
             tracer=None) -> Unit:
        clock = clock or Clock(calibrate=False)
        records, decoded = [], []
        for j, (variant, s) in enumerate(MODES):
            g = state.grads[(i + j) % len(state.grads)]
            stream = rng.Stream(state.seed).derive("bench-quantize", i, j)
            cg = clock.time("up", quantizers.compress, g, state.cb, s, variant, stream)
            frame = clock.time("up", wire.encode_frame, cg)
            dec = clock.time("down", wire.decode_frame, frame)
            x = clock.time("down", quantizers.decode, dec, state.cb)
            records.append((cg, frame, x))
            decoded.append(dec)
        mean = clock.time("down", quantizers.aggregate, decoded, state.cb)
        clock.flush()
        frames = [f for _, f, _ in records]
        return Unit(latencies_s=[clock.total("up", "down", nominal=False)],
                    nominal_s=[clock.total("up", "down")], busy_s=clock.all_wall(),
                    digest=sha256(*frames),
                    figures={"uplink_s": clock.total("up"), "downlink_s": clock.total("down"),
                             "coords": D_CODEC * len(MODES),
                             "frame_bytes": sum(len(f) for f in frames)},
                    outputs=(records, mean))

    def check(self, state: CodecState, i: int, unit: Unit, golden: str | None) -> tuple[int, int]:
        records, mean = unit.outputs
        failed = sum(not check_frame(state.cb, cg, frame, x) for cg, frame, x in records)
        total = records[0][2].copy()
        for _, _, x in records[1:]:
            total += x
        failed += not np.array_equal(total / len(records), mean)
        attempted = len(records) + 1
        if golden is not None:
            attempted += 1
            failed += unit.digest != golden
        return attempted, failed

    def fixed_checks(self, state: CodecState, golden: dict) -> tuple[int, int]:
        from golden import grid_frames

        frames = grid_frames()
        failed = sum(sha256(f) != golden["grid"].get(k) for k, f in frames.items())
        failed += sum(wire.encode_frame(wire.decode_frame(f)) != f for f in frames.values())
        return 2 * len(frames), failed

    def report(self, units: list[Unit]) -> dict:
        coords = sum(u.figures["coords"] for u in units)
        return {
            "uplink_mcoord_per_s": (coords / 1e6 / sum(u.figures["uplink_s"] for u in units),
                                    "Mcoord/s"),
            "downlink_mcoord_per_s": (coords / 1e6 / sum(u.figures["downlink_s"] for u in units),
                                      "Mcoord/s"),
            "wire_bits_per_coord": (8 * sum(u.figures["frame_bytes"] for u in units) / coords,
                                    "bit"),
        }


# ---------------------------------------------------------------------------
# sim-logistic-hsq, sim-mlp-qsgd


@dataclass
class SimState:
    problem: problems.Problem
    cfg: fedsim.FedConfig


def csv_failures(csv: str, reference: str | None, uplink: int, downlink: int) -> tuple[int, int]:
    """(rows, failed rows) of a simulator CSV.

    A row fails when it differs from the reference run's row, breaks the
    bit accounting, or has a non-finite loss; the last row also fails if
    the loss did not fall over the run.
    """
    rows = csv.splitlines()[1:]
    ref = reference.splitlines()[1:] if reference is not None else rows
    failed = 0
    first_loss = None
    for k, row in enumerate(rows, start=1):
        cols = row.split(",")
        try:
            loss = float(cols[1])
            ok = (len(cols) == 6 and int(cols[0]) == k and math.isfinite(loss)
                  and math.isfinite(float(cols[2]))
                  and int(cols[3]) == uplink and int(cols[4]) == downlink
                  and int(cols[5]) == k * uplink)
        except (ValueError, IndexError):
            ok, loss = False, math.nan
        first_loss = loss if first_loss is None else first_loss
        ok = ok and k <= len(ref) and row == ref[k - 1]
        if k == len(rows):
            ok = ok and loss < first_loss
        failed += not ok
    return len(rows), failed + abs(len(ref) - len(rows))


class Sim(Workload):
    def __init__(self, name: str, make_problem, scheme, rounds: int,
                 local_batch: int, eta: float, uplink_bits_per_client, setup_reps: int):
        self.name = name
        self.make_problem = make_problem
        self.scheme = scheme
        self.rounds, self.local_batch, self.eta = rounds, local_batch, eta
        self.uplink_bits_per_client = uplink_bits_per_client
        self.setup_reps = setup_reps
        self._reference: str | None = None

    def setup(self, seed: int) -> SimState:
        cfg = fedsim.FedConfig(num_clients=50, clients_per_round=10, rounds=self.rounds,
                               local_batch=self.local_batch, scheme=self.scheme,
                               lr=fedsim.LrSchedule(eta=self.eta), seed=seed)
        return SimState(problem=self.make_problem(), cfg=cfg)

    def unit(self, state: SimState, i: int, clock: Clock | None = None,
             tracer=None) -> Unit:
        clock = clock or Clock(calibrate=False)

        def on_round(t, x):
            # a round runs from one on_round call to the next (the last to
            # the return); what precedes round 0 is kept apart as "pre"
            clock.stop("round" if t else "pre")
            if tracer is not None:
                prev = tracer.innermost("fedsim.round")
                if prev is not None:
                    tracer.close(prev)
                tracer.open("fedsim.round")
            clock.start()

        clock.start()
        result = fedsim.run(state.cfg, state.problem, on_round=on_round)
        clock.stop("round")
        clock.flush()
        csv = fedsim.logs_to_csv(result.logs)
        return Unit(latencies_s=clock.wall["round"], nominal_s=clock.nominal["round"],
                    busy_s=clock.all_wall(), digest=sha256(csv.encode()),
                    figures={"rounds": len(result.logs), "final_loss": result.logs[-1].loss,
                             "nominal_s": clock.total("pre", "round")},
                    outputs=csv)

    def check(self, state: SimState, i: int, unit: Unit, golden: str | None) -> tuple[int, int]:
        if i == 0:
            self._reference = unit.outputs
        cfg = state.cfg
        d = state.problem.dim
        attempted, failed = csv_failures(
            unit.outputs, self._reference,
            uplink=cfg.clients_per_round * self.uplink_bits_per_client(d),
            downlink=cfg.clients_per_round * 32 * d)
        if golden is not None:
            attempted += 1
            failed += unit.digest != golden
        return attempted, failed

    def report(self, units: list[Unit]) -> dict:
        rounds = [t for u in units for t in u.nominal_s]
        return {
            "rounds_per_s": (sum(u.figures["rounds"] for u in units)
                             / sum(u.figures["nominal_s"] for u in units), "1/s"),
            "round_ms_p50": (1e3 * float(np.percentile(rounds, 50)), "ms"),
            "round_ms_p90": (1e3 * float(np.percentile(rounds, 90)), "ms"),
            "round_samples": (len(rounds), "count"),
            "final_loss": (units[-1].figures["final_loss"], "1"),
        }


def _hsq_bits(d: int) -> int:
    # ceil(d/d') records of log2 m index bits plus log2 (s+1) level bits
    return -(-d // 16) * (8 + 6)


def _qsgd_bits(d: int) -> int:
    # 4 level bits and a sign per coordinate, one f32 norm per 512-bucket
    return d * 5 + 32 * -(-d // 512)


SIM_LOGISTIC = Sim(
    "sim-logistic-hsq",
    lambda: problems.Logistic(dim=48, seed=5, num_samples=200),
    fedsim.QuantizerScheme(name="hsq", d_prime=16, m=256, s=63,
                           variant=quantizers.Variant.UNBIASED),
    rounds=400, local_batch=4, eta=0.5, uplink_bits_per_client=_hsq_bits, setup_reps=51)

SIM_MLP = Sim(
    "sim-mlp-qsgd",
    lambda: problems.TinyMLP((16, 64, 64, 4), seed=5, num_samples=2048),
    fedsim.QuantizerScheme(name="qsgd", s=15),
    rounds=200, local_batch=16, eta=0.5, uplink_bits_per_client=_qsgd_bits, setup_reps=5)


# ---------------------------------------------------------------------------
# analyze

# The codebooks run_validator_suite generates, as (method, d', m).
SUITE_CODEBOOKS = (("random-rotation", 16, 16), ("random-gaussian", 16, 32),
                   ("sob", 16, 16), ("random-rotation", 16, 16),
                   ("random-gaussian", 16, 32), ("kmeans-gaussian", 16, 32), ("sob", 16, 16))


def report_failures(report: dict, reference: dict) -> tuple[int, int]:
    """(checks, failed checks): a check fails if it did not pass or differs
    from the reference run's."""
    checks, ref = report.get("checks", []), reference.get("checks", [])
    failed = sum(not c.get("passed") or k >= len(ref) or c != ref[k]
                 for k, c in enumerate(checks))
    return len(checks), failed + abs(len(ref) - len(checks))


class Analyze(Workload):
    name = "analyze"
    setup_reps = 7

    def __init__(self):
        self._reference: dict | None = None

    def setup(self, seed: int) -> int:
        # the suite builds its codebooks itself; set-up times the same builds
        for method, dp, m in SUITE_CODEBOOKS:
            codebook.generate(method, dp, m, seed)
        return seed

    def unit(self, seed: int, i: int, clock: Clock | None = None, tracer=None) -> Unit:
        clock = clock or Clock(calibrate=False)
        report = clock.time("suite", metrics.run_validator_suite, seed)
        clock.flush()
        text = json.dumps(report, indent=2) + "\n"
        return Unit(latencies_s=clock.wall["suite"], nominal_s=clock.nominal["suite"],
                    busy_s=clock.all_wall(), digest=sha256(text.encode()), outputs=report)

    def check(self, seed: int, i: int, unit: Unit, golden: str | None) -> tuple[int, int]:
        if i == 0:
            self._reference = unit.outputs
        attempted, failed = report_failures(unit.outputs, self._reference)
        attempted += 1
        failed += not unit.outputs.get("all_passed")
        if golden is not None:
            attempted += 1
            failed += unit.digest != golden
        return attempted, failed

    def report(self, units: list[Unit]) -> dict:
        return {"suite_s": (float(np.median([u.nominal_s[0] for u in units])), "s")}


WORKLOADS = {w.name: w for w in (Codec(), SIM_LOGISTIC, SIM_MLP, Analyze())}

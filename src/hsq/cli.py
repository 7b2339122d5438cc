"""Command-line entry point.

Subcommands:

* ``codebook gen``  write a codebook file and print its spectrum stats
* ``quantize``      gradient file -> binary frame
* ``roundtrip``     codec self-check (a given frame, or a random suite)
* ``ratio``         bit accounting for one scheme or the whole grid
* ``simulate``      federated run from a JSON config -> CSV + summary
* ``analyze``       validator suite -> JSON report
* ``preset``        canned scheme configurations for a given model size

Outputs are JSON (or CSV where noted). Failures print a machine-readable
JSON object on stderr: config-schema problems list every violating field
and exit 2; runtime errors exit 1.

Each value's type and range are checked by the rule that owns it (``codebook.violations``,
``QuantizerScheme.violations``, ``LrSchedule.violations``, ``wire.length_violations``,
``quantizers.level_violations``, and the count and seed rules ``FedConfig`` applies),
never here: a config file's parser refuses only unknown keys, a nested field that is not
an object and an enum value that is none of its names. A field read from a flag is
reported as that flag, before any file is read or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import sys
import typing

import numpy as np

from . import fedsim, metrics, wire
from .codebook import (SEEDED_METHODS, generate, generate_violations, load_codebook,
                       save_codebook, seed_violations)
from .errors import ConfigError, HsqError, refuse
from .problems import Logistic, Problem, Quadratic, TinyMLP
from .quantizers import Variant, compress, level_violations
from .rng import Stream

SCHEMA_VERSION = 1


def _fail(code: int, **report) -> int:
    """Print report as the JSON line on stderr of a failure that exits with code."""
    json.dump(report, sys.stderr)
    sys.stderr.write("\n")
    return code


def _write(data: str | bytes, path: str | None) -> None:
    """data to the file at path, or to stdout when path is None or "-"."""
    if path in (None, "-"):
        (sys.stdout.buffer if isinstance(data, bytes) else sys.stdout).write(data)
    else:
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)


def _emit(obj: dict, path: str | None) -> None:
    _write(json.dumps(obj, indent=2) + "\n", path)


def _read_gradient(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path).ravel()
    return np.loadtxt(sys.stdin if path == "-" else path).ravel()


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config parsing for `simulate`

# each problem kind's class, the size field it reads and the fields a config must give
_PROBLEMS = {cls.kind: (cls, size, required) for cls, size, required in (
    (Quadratic, "dim", ("seed", "dim")), (Logistic, "dim", ("seed", "dim")),
    (TinyMLP, "layer_sizes", ("seed",)))}


@dataclasses.dataclass(frozen=True)
class _ProblemConfig:
    """The ``problem`` object of a simulate config; _PROBLEMS says which size field a kind reads."""

    kind: str | None = None
    seed: int | None = None
    dim: int | None = None
    num_samples: int | None = None
    layer_sizes: list[int] | None = None

    def build(self, violations: list[str]) -> Problem | None:
        """The problem, or None after violations that name the fields at fault."""
        if not isinstance(self.kind, str) or self.kind not in _PROBLEMS:
            violations.append(f"problem.kind: {self.kind!r} is not one of {tuple(_PROBLEMS)}")
            return None
        cls, size, required = _PROBLEMS[self.kind]
        given = {n: v for n, v in vars(self).items() if v is not None and n != "kind"}
        bad = [f"{n}: required for {self.kind}" for n in required if n not in given]
        bad += [f"{n}: {self.kind} reads {size}, not {n}"
                for n in given.keys() - {"seed", "num_samples", size}]
        violations.extend(f"problem.{v}" for v in bad)
        try:
            return None if bad else cls(**given)
        except ValueError as exc:  # the constructors' range checks name their parameter
            violations.append(f"problem.{exc}")
            return None


def _from_json(cls, raw, where: str, violations: list[str]):
    """The config dataclass cls from a JSON object, or None after a violation naming where.

    Field names and defaults come from cls itself. An unknown key is a
    violation naming it, a nested config object is read the same way (it
    keeps its default when it is not an object), and an enum field takes
    one of its values by name; every other value goes to cls as given, for
    the rule that owns it.
    """
    if not isinstance(raw, dict):
        violations.append(f"{where}: must be a JSON object, got {raw!r}")
        return None
    hints = typing.get_type_hints(cls)
    fields = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        hint = fields.get(key)
        if hint is None:
            violations.append(f"{name}: unknown field")
        elif dataclasses.is_dataclass(hint):
            if (nested := _from_json(hint, value, name, violations)) is not None:
                kwargs[key] = nested
        elif isinstance(hint, enum.EnumMeta) and value not in [e.value for e in hint]:
            violations.append(f"{name}: expected one of {[e.value for e in hint]}, got {value!r}")
        else:
            kwargs[key] = hint(value) if isinstance(hint, enum.EnumMeta) else value
    return cls(**kwargs)


def _config_from_json(raw: dict) -> tuple[fedsim.FedConfig, Problem]:
    violations: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    if "seed" not in raw:
        violations.append("seed: required (configs must pin their randomness explicitly)")
    cfg = _from_json(fedsim.FedConfig, {k: v for k, v in raw.items() if k != "problem"},
                     "", violations)
    problem = None
    if "problem" not in raw:
        violations.append("problem: required")
    elif spec := _from_json(_ProblemConfig, raw["problem"], "problem", violations):
        problem = spec.build(violations)
    violations.extend(cfg.violations())
    if violations:
        raise ConfigError(violations)
    return cfg, problem


def _config_echo(cfg: fedsim.FedConfig) -> dict:
    return dataclasses.asdict(cfg, dict_factory=lambda items: {
        k: v.value if isinstance(v, enum.Enum) else v for k, v in items})


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_codebook_gen(args) -> int:
    refuse(generate_violations(args.method, args.d_prime, args.m, args.seed))
    cb = generate(args.method, args.d_prime, args.m, args.seed)
    save_codebook(cb, args.out)
    _emit({"schema_version": SCHEMA_VERSION, "file": args.out,
           "method": args.method, "d_prime": cb.dim, "m": cb.count,
           "seed": args.seed, "sigma_min": cb.sigma_min, "sigma_max": cb.sigma_max},
          None)
    return 0


def _cmd_quantize(args) -> int:
    refuse(level_violations(args.s) + seed_violations(args.seed))
    cb = load_codebook(args.codebook)
    g = _read_gradient(args.input)
    rng = Stream(args.seed).derive("cli-quantize")
    cg = compress(g, cb, args.s, Variant(args.variant), rng)
    _write(wire.encode_frame(cg), args.out)
    return 0


def _cmd_roundtrip(args) -> int:
    if args.frame is not None:
        buf = _read_bytes(args.frame)
        cg = wire.decode_frame(buf)
        ok = wire.encode_frame(cg) == buf
        _emit({"schema_version": SCHEMA_VERSION, "mode": "file", "ok": ok,
               "d": cg.total_dim, "d_prime": cg.segment_dim,
               "m": cg.codeword_count, "s": cg.levels}, None)
        return 0 if ok else _fail(1, error="roundtrip", message="re-encoded frame differs")
    refuse(fedsim.count_violations(frames=args.frames) + seed_violations(args.seed))
    root = Stream(args.seed).derive("cli-roundtrip")
    for i in range(args.frames):
        frame = wire.random_frame(root.derive(i))
        if wire.decode_frame(wire.encode_frame(frame)) != frame:
            return _fail(1, error="roundtrip", message=f"mismatch on random frame {i}")
    _emit({"schema_version": SCHEMA_VERSION, "mode": "random-suite",
           "frames": args.frames, "ok": True}, None)
    return 0


def _cmd_ratio(args) -> int:
    kw = dict(d_prime=args.d_prime, m=args.m, s=args.s, bucket_size=args.bucket_size)
    schemes = {name: fedsim.QuantizerScheme(name, **kw) for name in fedsim.SCHEMES}
    bad = {name: p.violations() for name, p in schemes.items()}
    refuse(([] if args.d is None else wire.length_violations(args.d)) + bad.get(args.scheme, []))
    # the grid leaves out a scheme with a parameter it reads missing or out of range
    ratios = {name: fedsim.compression_ratio(p, args.d, args.include_header)
              for name, p in schemes.items() if not bad[name]}
    if args.scheme is not None:
        print(f"{ratios[args.scheme]:.1f}")
        return 0
    _emit({"schema_version": SCHEMA_VERSION, "include_header": args.include_header,
           "grid": [{"scheme": name, "ratio": round(r, 1)} for name, r in ratios.items()]}, None)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    given = {k: v for k, v in vars(args).items() if k in ("seed", "rounds")}  # override it
    cfg, problem = _config_from_json({**raw, **given} if isinstance(raw, dict) else raw)
    result = fedsim.run(cfg, problem)

    _write(fedsim.logs_to_csv(result.logs), args.csv)

    last = result.logs[-1]
    summary = {"schema_version": SCHEMA_VERSION,
               "config": _config_echo(cfg),
               "problem": {"kind": problem.kind, "dim": problem.dim,
                           "num_samples": problem.num_samples},
               "eta": result.eta,
               "rounds": cfg.rounds,
               "final_loss": last.loss,
               "final_grad_norm_sq": last.grad_norm_sq,
               "total_uplink_bits": sum(l.uplink_bits for l in result.logs),
               "total_downlink_bits": sum(l.downlink_bits for l in result.logs)}
    if hasattr(problem, "accuracy"):
        summary["final_accuracy"] = problem.accuracy(result.x_final)
    if args.summary is not None:
        _emit(summary, args.summary)
    return 0


def _cmd_analyze(args) -> int:
    refuse(seed_violations(args.seed))
    report = metrics.run_validator_suite(args.seed)
    _emit(report, args.out)
    return 0 if report["all_passed"] else 1


def _cmd_preset(args) -> int:
    refuse(wire.length_violations(args.d))
    d = args.d
    d_prime = {"extreme": d, "compact": max(1, round(math.sqrt(d))),
               "high-precision": args.d_prime}[args.name]
    scheme = {"name": "hsq", "d_prime": d_prime, "m": d_prime, "s": 0,
              "variant": "unbiased", "codebook_method": "random-rotation"}
    qs = fedsim.QuantizerScheme(**scheme)
    _emit({"schema_version": SCHEMA_VERSION, "preset": args.name, "d": d,
           "scheme": scheme, "payload_bits": fedsim.payload_bits(qs, d),
           "compression_ratio": round(fedsim.compression_ratio(qs, d), 1)}, None)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsq",
                                     description="gradient compression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cb = sub.add_parser("codebook", help="codebook management")
    cb_sub = p_cb.add_subparsers(dest="codebook_command", required=True)
    p_gen = cb_sub.add_parser("gen", help="generate and save a codebook")
    p_gen.add_argument("--method", required=True,
                       choices=[m.value for m in SEEDED_METHODS])
    p_gen.add_argument("--dprime", dest="d_prime", type=int, required=True,
                       help="segment length d'")
    p_gen.add_argument("--m", type=int, required=True, help="codeword count")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_codebook_gen, parser=p_gen)

    p_q = sub.add_parser("quantize", help="compress a gradient file into a frame")
    p_q.add_argument("--codebook", required=True)
    p_q.add_argument("--input", required=True, help=".npy or text floats; - for stdin")
    p_q.add_argument("--s", type=int, required=True, help="pseudo-norm levels (0 = exact)")
    p_q.add_argument("--variant", choices=[v.value for v in Variant], default="unbiased")
    p_q.add_argument("--seed", type=int, required=True)
    p_q.add_argument("--out", default="-", help="frame file; - for stdout")
    p_q.set_defaults(func=_cmd_quantize, parser=p_q)

    p_rt = sub.add_parser("roundtrip", help="codec self-check")
    p_rt.add_argument("--frame", help="check one existing frame file")
    p_rt.add_argument("--frames", type=int, default=1000, help="random-suite size")
    p_rt.add_argument("--seed", type=int, default=0)
    p_rt.set_defaults(func=_cmd_roundtrip, parser=p_rt)

    p_r = sub.add_parser("ratio", help="compression-ratio accounting")
    p_r.add_argument("--scheme", choices=fedsim.SCHEMES, help="omit for the full grid")
    p_r.add_argument("--d", type=int)
    p_r.add_argument("--dprime", dest="d_prime", type=int)
    p_r.add_argument("--m", type=int)
    p_r.add_argument("--s", type=int)
    p_r.add_argument("--bucket-size", type=int, default=fedsim.QSGD_BUCKET_SIZE)
    p_r.add_argument("--include-header", action="store_true")
    p_r.set_defaults(func=_cmd_ratio, parser=p_r)

    p_s = sub.add_parser("simulate", help="run a federated experiment")
    p_s.add_argument("--config", required=True, help="JSON config file")
    # absent unless given, so a config value is not reported as the flag
    p_s.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override config seed")
    p_s.add_argument("--rounds", type=int, default=argparse.SUPPRESS,
                     help="override config rounds")
    p_s.add_argument("--csv", help="round log CSV path (default stdout)")
    p_s.add_argument("--summary", help="summary JSON path")
    p_s.set_defaults(func=_cmd_simulate, parser=p_s)

    p_a = sub.add_parser("analyze", help="run the validator suite")
    p_a.add_argument("--seed", type=int, default=0)
    p_a.add_argument("--out", help="report path (default stdout)")
    p_a.set_defaults(func=_cmd_analyze, parser=p_a)

    p_p = sub.add_parser("preset", help="canned scheme configurations")
    p_p.add_argument("name", choices=["extreme", "compact", "high-precision"])
    p_p.add_argument("--d", type=int, required=True, help="model dimension")
    p_p.add_argument("--kappa", dest="d_prime", type=int, default=4, help="high-precision's d'")
    p_p.set_defaults(func=_cmd_preset, parser=p_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # a field the command read from a flag is reported as that flag; rules check
        # numbers only, so a config file's field never takes the name of a path flag
        flags = {a.dest: a.option_strings[0] for a in args.parser._actions
                 if a.type is int and hasattr(args, a.dest)}
        return _fail(2, error="config", violations=[flags.get(f, f) + sep + rest for f, sep, rest
                                                    in (v.partition(":") for v in exc.violations)])
    except (HsqError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        return _fail(1, error=type(exc).__name__, message=str(exc))


if __name__ == "__main__":
    sys.exit(main())

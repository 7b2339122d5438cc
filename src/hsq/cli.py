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
from .codebook import CodebookMethod, generate, load_codebook, save_codebook
from .errors import ConfigError, HsqError
from .problems import Logistic, Problem, Quadratic, TinyMLP
from .quantizers import Variant, compress
from .rng import Stream

SCHEMA_VERSION = 1


def _fail_config(violations: list[str]) -> int:
    json.dump({"error": "config", "violations": violations}, sys.stderr)
    sys.stderr.write("\n")
    return 2


def _fail_runtime(kind: str, message: str) -> int:
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def _emit(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_gradient(path: str) -> np.ndarray:
    if path == "-":
        return np.loadtxt(sys.stdin).ravel()
    if path.endswith(".npy"):
        return np.load(path).ravel()
    return np.loadtxt(path).ravel()


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(data: bytes, path: str) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------
# config parsing for `simulate`

_PROBLEMS = {cls.kind: cls for cls in (Quadratic, Logistic, TinyMLP)}
_PROBLEM_KEYS = {"kind", "dim", "seed", "num_samples", "layer_sizes"}
_MISTYPED = object()


def _typed(hint, value, where: str, violations: list[str]):
    """value as a field typed hint takes it, or _MISTYPED after a violation naming the field.

    JSON ints pass for float fields, booleans only for bool fields."""
    if dataclasses.is_dataclass(hint):
        return _from_json(hint, value, where, violations) or _MISTYPED
    options = typing.get_args(hint) or (hint,)
    for t in options:
        if issubclass(t, enum.Enum) and value in [e.value for e in t]:
            return t(value)
        if type(value) is t or (t is float and type(value) is int):
            return value
    expected = " or ".join(f"one of {[e.value for e in t]}" if issubclass(t, enum.Enum)
                           else "null" if t is type(None) else t.__name__ for t in options)
    violations.append(f"{where}: expected {expected}, got {value!r}")
    return _MISTYPED


def _from_json(cls, raw, where: str, violations: list[str]):
    """The config dataclass cls from a JSON object, or None if a value is mistyped.

    Field names, types and defaults come from cls itself; unknown keys
    and mistyped values are violations naming the field.
    """
    if not isinstance(raw, dict):
        violations.append(f"{where}: must be a JSON object, got {raw!r}")
        return None
    hints = typing.get_type_hints(cls)
    fields = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        if key in fields:
            kwargs[key] = _typed(fields[key], value, name, violations)
        else:
            violations.append(f"{name}: unknown field")
    return None if _MISTYPED in kwargs.values() else cls(**kwargs)


def _problem_from_dict(raw: dict, violations: list[str]) -> Problem | None:
    if not isinstance(raw, dict):
        violations.append(f"problem: must be a JSON object, got {raw!r}")
        return None
    for key in set(raw) - _PROBLEM_KEYS:
        violations.append(f"problem.{key}: unknown field")
    kind = raw.get("kind")
    if kind not in tuple(_PROBLEMS):
        violations.append(f"problem.kind: {kind!r} is not one of {tuple(_PROBLEMS)}")
        return None
    if "seed" not in raw:
        violations.append("problem.seed: required")
        return None
    if kind != "tinymlp" and "dim" not in raw:
        violations.append(f"problem.dim: required for {kind}")
        return None
    extra = {"num_samples": raw["num_samples"]} if "num_samples" in raw else {}
    try:
        shape = tuple(raw.get("layer_sizes", (2, 8, 2))) if kind == "tinymlp" else raw["dim"]
        return _PROBLEMS[kind](shape, raw["seed"], **extra)
    except (ValueError, TypeError) as exc:
        violations.append(f"problem: {exc}")
        return None


def _config_from_json(raw: dict) -> tuple[fedsim.FedConfig, Problem]:
    violations: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    if "seed" not in raw:
        violations.append("seed: required (configs must pin their randomness explicitly)")
    if "problem" not in raw:
        violations.append("problem: required")
    cfg = _from_json(fedsim.FedConfig, {k: v for k, v in raw.items() if k != "problem"},
                     "", violations)
    problem = _problem_from_dict(raw["problem"], violations) if "problem" in raw else None
    if cfg is not None:  # range checks only once every value has its type
        violations.extend(cfg.violations())
    if violations or problem is None:
        raise ConfigError(violations or ["problem: could not be constructed"])
    return cfg, problem


def _config_echo(cfg: fedsim.FedConfig) -> dict:
    return dataclasses.asdict(cfg, dict_factory=lambda items: {
        k: v.value if isinstance(v, enum.Enum) else v for k, v in items})


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_codebook_gen(args) -> int:
    method = CodebookMethod(args.method)
    cb = generate(method, args.dprime, args.m, args.seed)
    save_codebook(cb, args.out)
    _emit({"schema_version": SCHEMA_VERSION, "file": args.out,
           "method": method.value, "d_prime": cb.dim, "m": cb.count,
           "seed": args.seed, "sigma_min": cb.sigma_min, "sigma_max": cb.sigma_max},
          None)
    return 0


def _cmd_quantize(args) -> int:
    cb = load_codebook(args.codebook)
    g = _read_gradient(args.input)
    rng = Stream(args.seed).derive("cli-quantize")
    cg = compress(g, cb, args.s, Variant(args.variant), rng)
    _write_bytes(wire.encode_frame(cg), args.out)
    return 0


def _cmd_roundtrip(args) -> int:
    if args.frame is not None:
        buf = _read_bytes(args.frame)
        cg = wire.decode_frame(buf)
        ok = wire.encode_frame(cg) == buf
        _emit({"schema_version": SCHEMA_VERSION, "mode": "file", "ok": ok,
               "d": cg.total_dim, "d_prime": cg.segment_dim,
               "m": cg.codeword_count, "s": cg.levels}, None)
        return 0 if ok else _fail_runtime("roundtrip", "re-encoded frame differs")
    root = Stream(args.seed).derive("cli-roundtrip")
    for i in range(args.frames):
        frame = wire.random_frame(root.derive(i))
        if wire.decode_frame(wire.encode_frame(frame)) != frame:
            return _fail_runtime("roundtrip", f"mismatch on random frame {i}")
    _emit({"schema_version": SCHEMA_VERSION, "mode": "random-suite",
           "frames": args.frames, "ok": True}, None)
    return 0


def _cmd_ratio(args) -> int:
    kw = dict(d=args.d, d_prime=args.dprime, m=args.m, s=args.s,
              include_header=args.include_header, bucket_size=args.bucket_size)
    if args.scheme is not None:
        print(f"{wire.compression_ratio(args.scheme, **kw):.1f}")
        return 0
    rows = []
    for scheme in wire.SCHEMES:
        try:
            rows.append({"scheme": scheme,
                         "ratio": round(wire.compression_ratio(scheme, **kw), 1)})
        except ValueError:
            continue  # a parameter the scheme reads is missing or out of range
    _emit({"schema_version": SCHEMA_VERSION, "include_header": args.include_header,
           "grid": rows}, None)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.rounds is not None:
        raw["rounds"] = args.rounds
    cfg, problem = _config_from_json(raw)
    result = fedsim.run(cfg, problem)

    csv_text = fedsim.logs_to_csv(result.logs)
    if args.csv is not None:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

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
    report = metrics.run_validator_suite(args.seed)
    _emit(report, args.out)
    return 0 if report["all_passed"] else 1


def _cmd_preset(args) -> int:
    d = args.d
    if args.name == "extreme":
        d_prime = d
    elif args.name == "compact":
        d_prime = max(1, int(round(math.sqrt(d))))
    else:  # high-precision
        d_prime = args.kappa
    scheme = {"name": "hsq", "d_prime": d_prime, "m": d_prime, "s": 0,
              "variant": "unbiased", "codebook_method": "random-rotation"}
    bits = wire.payload_bits("hsq", d, d_prime=d_prime, m=d_prime, s=0)
    _emit({"schema_version": SCHEMA_VERSION, "preset": args.name, "d": d,
           "scheme": scheme, "payload_bits": bits,
           "compression_ratio": round(32.0 * d / bits, 1)}, None)
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
                       choices=[m.value for m in CodebookMethod if m.value != "custom"])
    p_gen.add_argument("--dprime", type=int, required=True, help="segment length d'")
    p_gen.add_argument("--m", type=int, required=True, help="codeword count")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_codebook_gen)

    p_q = sub.add_parser("quantize", help="compress a gradient file into a frame")
    p_q.add_argument("--codebook", required=True)
    p_q.add_argument("--input", required=True, help=".npy or text floats; - for stdin")
    p_q.add_argument("--s", type=int, required=True, help="pseudo-norm levels (0 = exact)")
    p_q.add_argument("--variant", choices=[v.value for v in Variant], default="unbiased")
    p_q.add_argument("--seed", type=int, required=True)
    p_q.add_argument("--out", default="-", help="frame file; - for stdout")
    p_q.set_defaults(func=_cmd_quantize)

    p_rt = sub.add_parser("roundtrip", help="codec self-check")
    p_rt.add_argument("--frame", help="check one existing frame file")
    p_rt.add_argument("--frames", type=int, default=1000, help="random-suite size")
    p_rt.add_argument("--seed", type=int, default=0)
    p_rt.set_defaults(func=_cmd_roundtrip)

    p_r = sub.add_parser("ratio", help="compression-ratio accounting")
    p_r.add_argument("--scheme", choices=wire.SCHEMES, help="omit for the full grid")
    p_r.add_argument("--d", type=int)
    p_r.add_argument("--dprime", dest="dprime", type=int)
    p_r.add_argument("--m", type=int)
    p_r.add_argument("--s", type=int)
    p_r.add_argument("--bucket-size", type=int, default=wire.QSGD_BUCKET_SIZE)
    p_r.add_argument("--include-header", action="store_true")
    p_r.set_defaults(func=_cmd_ratio)

    p_s = sub.add_parser("simulate", help="run a federated experiment")
    p_s.add_argument("--config", required=True, help="JSON config file")
    p_s.add_argument("--seed", type=int, help="override config seed")
    p_s.add_argument("--rounds", type=int, help="override config rounds")
    p_s.add_argument("--csv", help="round log CSV path (default stdout)")
    p_s.add_argument("--summary", help="summary JSON path")
    p_s.set_defaults(func=_cmd_simulate)

    p_a = sub.add_parser("analyze", help="run the validator suite")
    p_a.add_argument("--seed", type=int, default=0)
    p_a.add_argument("--out", help="report path (default stdout)")
    p_a.set_defaults(func=_cmd_analyze)

    p_p = sub.add_parser("preset", help="canned scheme configurations")
    p_p.add_argument("name", choices=["extreme", "compact", "high-precision"])
    p_p.add_argument("--d", type=int, required=True, help="model dimension")
    p_p.add_argument("--kappa", type=int, default=4, help="segment length for high-precision")
    p_p.set_defaults(func=_cmd_preset)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail_config(exc.violations)
    except HsqError as exc:
        return _fail_runtime(type(exc).__name__, str(exc))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail_runtime(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())

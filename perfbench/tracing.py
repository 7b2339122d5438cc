"""Span tracer that wraps the public functions of each ``hsq`` layer.

The library has no tracing of its own, so the benchmark wraps the
functions at each layer boundary from outside. A name bound into another
module (``fedsim`` does ``from .quantizers import compress``) is a second
binding of the same function object, so wrapping only its home module
would trace nothing there: ``install`` rebinds every ``hsq`` module
attribute that holds the original, and ``restore`` puts the originals
back.

Spans are kept in memory (name id, start, end, parent) and turned into
per-layer numbers when the run ends. A layer's busy time is its self
time: the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Problem oracles are charged by context: a full-batch gradient or an
# objective after a round is evaluation, and anything a problem
# constructor calls is set-up, even though both reach stochastic_gradient.
_ORACLES = ("problems.gradient", "problems.objective", "problems.stochastic_gradient")
_ORACLE_CONTEXTS = ("problems.init", "problems.eval")


def _classify(name: str, parent_key: str | None) -> str:
    if name not in _ORACLES:
        return name
    if parent_key in _ORACLE_CONTEXTS:
        return parent_key
    return name if name == "problems.stochastic_gradient" else "problems.eval"


class Tracer:
    def __init__(self) -> None:
        self._keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        parent_key = self._keys[self.key[parent]] if parent >= 0 else None
        key = _classify(name, parent_key)
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self._keys)
            self._keys.append(key)
        idx = len(self.start)
        self.key.append(kid)
        self.parent.append(parent)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.end[top] = now
            if top == idx:
                break

    def innermost(self, name: str) -> int | None:
        """Index of the innermost open span named ``name``, if any."""
        for idx in reversed(self._stack):
            if self._keys[self.key[idx]] == name:
                return idx
        return None

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                # a span of its own, so counting is not charged to the caller
                idx = tracer.open("trace.bookkeeping")
                after(tracer, args, kwargs, result)
                tracer.close(idx)
            return result

        return traced

    def install(self, name: str, owner, attr: str, after=None) -> None:
        """Wrap ``owner.attr`` and rebind every hsq module name bound to it."""
        original = owner.__dict__[attr]
        traced = self._wrap(name, original, after)
        self._set(owner, attr, original, traced)
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "hsq" or mod_name.startswith("hsq.")):
                continue
            for k, v in list(vars(mod).items()):
                if v is original:
                    self._set(mod, k, original, traced)

    def _set(self, owner, attr, original, traced) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, busy (self) seconds and inclusive seconds per span key."""
        key = np.frombuffer(self.key, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        n = len(self._keys)
        calls = np.bincount(key, minlength=n)
        busy = np.bincount(key, weights=own, minlength=n)
        incl = np.bincount(key, weights=dur, minlength=n)
        return {k: {"calls": int(calls[i]), "busy_s": float(busy[i]), "incl_s": float(incl[i])}
                for i, k in enumerate(self._keys)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"keys": self._keys, "columns": ["key", "start", "end", "parent"],
                       "counters": self.counters,
                       "spans": list(zip(self.key, self.start, self.end, self.parent))}, fh)


def _after_compress(tracer: Tracer, args, kwargs, cg) -> None:
    g = np.asarray(args[0] if args else kwargs["g"])
    dp = cg.segment_dim
    pad = (-g.shape[0]) % dp
    segs = np.concatenate([g, np.zeros(pad)]).reshape(-1, dp)
    tracer.count("compress.coords", g.shape[0])
    tracer.count("compress.segments", segs.shape[0])
    tracer.count("compress.zero_segments", int(np.count_nonzero(~segs.any(axis=1))))


def _after_encode(tracer: Tracer, args, kwargs, frame) -> None:
    from hsq import wire

    cg = args[0] if args else kwargs["cg"]
    tracer.count("encode.bytes", len(frame))
    tracer.count("encode.payload_bits_framed", 8 * (len(frame) - wire.HEADER.size))
    tracer.count("encode.hsq_payload_bits", wire.hsq_payload_bits(
        cg.total_dim, cg.segment_dim, cg.codeword_count, cg.levels))


def _problem_classes(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from hsq import baselines, codebook, fedsim, metrics, problems, quantizers, rng, wire

    tracer.install("rng.derive", rng.Stream, "derive")
    tracer.install("rng.choice_without_replacement", rng.Stream, "choice_without_replacement")
    tracer.install("codebook.generate", codebook, "generate")
    tracer.install("quantizers.compress", quantizers, "compress", _after_compress)
    for fn in ("decode", "aggregate", "quantize_greedy", "sample_unbiased_codes"):
        tracer.install(f"quantizers.{fn}", quantizers, fn)
    tracer.install("wire.encode_frame", wire, "encode_frame", _after_encode)
    tracer.install("wire.decode_frame", wire, "decode_frame")
    for fn in ("compress_qsgd", "decode_qsgd"):
        tracer.install(f"baselines.{fn}", baselines, fn)
    for cls in _problem_classes(problems.Problem):
        for attr, name in (("__init__", "problems.init"), ("gradient", "problems.gradient"),
                           ("objective", "problems.objective"),
                           ("stochastic_gradient", "problems.stochastic_gradient")):
            if attr in cls.__dict__:
                tracer.install(name, cls, attr)
    tracer.install("fedsim.run", fedsim, "run")
    for fn in ("run_validator_suite", "check_unbiasedness", "check_variance_bound",
               "check_alpha", "beta_correlation"):
        tracer.install(f"metrics.{fn}", metrics, fn)


PER_LAYER_UNITS = {
    "rng.derive.calls": "count",
    "rng.derive.busy_s": "s",
    "rng.choice_without_replacement.busy_s": "s",
    "codebook.generate.busy_s": "s",
    "quantizers.compress.busy_s": "s",
    "quantizers.compress.calls": "count",
    "quantizers.compress.mcoord_per_s": "Mcoord/s",
    "quantizers.decode.busy_s": "s",
    "quantizers.aggregate.busy_s": "s",
    "quantizers.zero_segment_share": "ratio",
    "quantizers.quantize_greedy.busy_s": "s",
    "quantizers.sample_unbiased_codes.busy_s": "s",
    "wire.encode_frame.busy_s": "s",
    "wire.decode_frame.busy_s": "s",
    "wire.frame_bytes": "B",
    "wire.payload_efficiency": "ratio",
    "baselines.compress_qsgd.busy_s": "s",
    "baselines.decode_qsgd.busy_s": "s",
    "problems.stochastic_gradient.busy_s": "s",
    "problems.eval.busy_s": "s",
    "problems.init.busy_s": "s",
    "fedsim.round.self_s": "s",
    "fedsim.eval_share": "ratio",
    "metrics.check_variance_bound.busy_s": "s",
    "metrics.check_alpha.busy_s": "s",
    "metrics.check_unbiasedness.busy_s": "s",
    "metrics.beta_correlation.calls": "count",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
}


def per_layer_metrics(tracer: Tracer, overhead_share: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, zero for unused layers."""
    table = tracer.layer_table()
    c = tracer.counters

    def get(key: str, field: str) -> float:
        return table.get(key, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for name in PER_LAYER_UNITS:
        key, _, field = name.rpartition(".")
        if field in ("busy_s", "calls"):
            values[name] = get(key, field)
    values.update({
        "quantizers.compress.mcoord_per_s": ratio(c.get("compress.coords", 0) / 1e6,
                                                  get("quantizers.compress", "incl_s")),
        "quantizers.zero_segment_share": ratio(c.get("compress.zero_segments", 0),
                                               c.get("compress.segments", 0)),
        "wire.frame_bytes": ratio(c.get("encode.bytes", 0), get("wire.encode_frame", "calls")),
        "wire.payload_efficiency": ratio(c.get("encode.hsq_payload_bits", 0),
                                         c.get("encode.payload_bits_framed", 0)),
        "fedsim.round.self_s": get("fedsim.round", "busy_s"),
        "fedsim.eval_share": ratio(get("problems.eval", "busy_s"), get("fedsim.run", "incl_s")),
        "trace.spans": len(tracer.start),
        "trace.overhead_share": overhead_share,
    })
    return values

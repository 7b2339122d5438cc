"""Benchmark of the hsq gradient codec, federated simulator and validators.

Run from the repository root:

    python3 perfbench/run.py --workload codec-d100k --seed 0 --seconds 10 --trace 0

``--workload`` is one of codec-d100k, sim-logistic-hsq, sim-mlp-qsgd,
analyze, or ``all`` to run each in turn. Load comes from this one
process in a closed loop. BLAS runs one thread unless the environment
sets another count; a count above nproc is refused.

With ``--trace 0`` the run sets up its workload several times (median
reported as setup_s), then repeats units of work for ``--seconds``
seconds, checking every unit's outputs, and reports the end-to-end
metrics. Every time in the result is in nominal seconds: wall-clock
time corrected for the machine's speed, measured by a reference loop
run between timed intervals (see clock.py); the report line also gives
the wall-clock quartiles. With ``--trace 1`` it does the same untraced
pass, then sets up once more and runs one unit with every layer wrapped
(see tracing.py),
and reports the per-layer metrics of that unit together with the
tracing overhead. The traced unit's output digest must equal the
untraced one's. Spans are written to perfbench/out/.

Every line but the last is a JSON report with the environment, sample
counts, quartiles, the workload's own figures and digests. The last line
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("codec-d100k", "sim-logistic-hsq", "sim-mlp-qsgd", "analyze")
END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50_nominal": "ms", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def cap_blas_threads(nproc: int) -> int:
    """Set every BLAS thread variable, to 1 if unset; refuse a count above nproc.

    One thread by default: with a BLAS thread per vCPU of a shared
    machine, the times follow whatever else runs on the other vCPU.
    """
    for var in BLAS_VARS:
        value = os.environ.get(var) or "1"
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            raise BenchError(f"{var}={value} must be a thread count in [1, nproc={nproc}]")
        os.environ[var] = value
    return max(int(os.environ[v]) for v in BLAS_VARS)


def import_library() -> tuple[int, int]:
    """Set the thread cap, then import hsq from this checkout's src/."""
    nproc = len(os.sched_getaffinity(0))
    cap = cap_blas_threads(nproc)
    if not (SRC / "hsq" / "__init__.py").is_file():
        raise BenchError(f"no hsq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hsq

    if Path(hsq.__file__).resolve().parent != (SRC / "hsq").resolve():
        raise BenchError(f"imported hsq from {hsq.__file__}, not from {SRC}")
    return nproc, cap


def environment(nproc: int, blas_threads: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "hsq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest(), "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas_threads, "machine": platform.machine()}


def summary(values: list[float], scale: float = 1.0) -> dict:
    """Median, quartiles, mean and sample count."""
    vals = [scale * v for v in values]
    q1, q2, q3 = (statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1
                  else (vals[0],) * 3)
    return {"value": q2, "n": len(vals), "q1": q1, "q3": q3, "mean": statistics.fmean(vals)}


def run_workload(wl, seed: int, seconds: float, trace: bool, golden: dict, env: dict):
    from clock import Clock
    from tracing import PER_LAYER_UNITS, Tracer, install_layers, per_layer_metrics

    golden_digest = golden["workloads"].get(wl.name) if seed == golden["seed"] else None
    setup = Clock()
    for _ in range(wl.setup_reps):
        state = setup.time("setup", wl.setup, seed)
    setup.flush()

    units, attempted, failed = [], 0, 0
    t_start = time.perf_counter()
    while not units or time.perf_counter() - t_start < seconds:
        i = len(units)
        unit = wl.unit(state, i, Clock())
        a, f = wl.check(state, i, unit, golden_digest if i == 0 else None)
        attempted, failed = attempted + a, failed + f
        unit.outputs = None
        units.append(unit)
    a, f = wl.fixed_checks(state, golden)
    attempted, failed = attempted + a, failed + f

    busy = [u.busy_s for u in units]
    op_ms = summary([t for u in units for t in u.nominal_s], 1e3)
    end_to_end = {
        "setup_s": summary(setup.nominal["setup"]),
        "op_ms_p50_nominal": op_ms,
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
    }
    for name, unit in END_TO_END_UNITS.items():
        end_to_end[name]["unit"] = unit
    report = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "units": len(units), "end_to_end": end_to_end,
              "wall": {"op_ms": summary([t for u in units for t in u.latencies_s], 1e3),
                       "setup_s": summary(setup.wall["setup"])},
              "workload_metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in wl.report(units).items()},
              "digests": {"unit0": units[0].digest, "golden": golden_digest}}

    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in end_to_end.items()}
    if trace:
        tracer = Tracer()
        install_layers(tracer)
        try:
            traced = wl.unit(wl.setup(seed), 0, Clock(calibrate=False), tracer)
        finally:
            tracer.restore()
        attempted += 1
        failed += traced.digest != units[0].digest
        overhead = traced.busy_s / statistics.median(busy) - 1.0
        per_layer = per_layer_metrics(tracer, overhead)
        tracer.write(OUT / f"trace-{wl.name}-seed{seed}.json")
        report["digests"]["traced_unit0"] = traced.digest
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in per_layer.items()}
        report["per_layer"] = metrics

    report.update(ops_attempted=attempted, ops_failed=failed,
                  ops_failed_ratio=failed / attempted)
    return report, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        nproc, cap = import_library()
        from golden import load
        from workloads import WORKLOADS

        golden = load()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = environment(nproc, cap)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        report, result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace), golden, env)
        print(json.dumps({"report": report}), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

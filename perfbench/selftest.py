"""Self-test of the benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

It passes when every corruption below is reported as a failed operation
and every bad invocation is refused:

* each single-byte flip of a frame (both payload layouts);
* one changed digit in a simulator CSV, against the reference run and
  against the golden digest;
* an unknown workload name;
* a BLAS thread cap above nproc.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def flipped_frames_fail() -> bool:
    import numpy as np

    from hsq import codebook, quantizers, rng, wire
    from workloads import MODES, check_frame, seeded_gradient

    cb = codebook.generate("random-gaussian", 16, 256, 1)
    g = seeded_gradient(np.random.default_rng(1), 103, 16)
    g[16:32] = 0.0
    ok = True
    for variant, s in MODES:
        cg = quantizers.compress(g, cb, s, variant, rng.Stream(1).derive("selftest"))
        frame = wire.encode_frame(cg)
        x = quantizers.decode(wire.decode_frame(frame), cb)
        ok &= check_frame(cb, cg, frame, x)
        for pos in range(len(frame)):
            bad = bytearray(frame)
            bad[pos] ^= 0xFF
            ok &= not check_frame(cb, cg, bytes(bad), x)
    return ok


def changed_csv_digit_fails() -> bool:
    import dataclasses

    from golden import load
    from workloads import DEFAULT_SEED, SIM_LOGISTIC, sha256

    golden = load()["workloads"][SIM_LOGISTIC.name]
    state = SIM_LOGISTIC.setup(DEFAULT_SEED)
    unit = SIM_LOGISTIC.unit(state, 0)
    attempted, failed = SIM_LOGISTIC.check(state, 0, unit, golden)
    if failed or attempted != state.cfg.rounds + 1:
        return False

    lines = unit.outputs.split("\n")
    cols = lines[7].split(",")
    cols[1] = cols[1][:-1] + str((int(cols[1][-1]) + 1) % 10)  # last digit of the loss
    lines[7] = ",".join(cols)
    csv = "\n".join(lines)
    bad = dataclasses.replace(unit, outputs=csv, digest=sha256(csv.encode()))
    # against the reference run (unit 0 of this process) ...
    _, failed_vs_reference = SIM_LOGISTIC.check(state, 1, bad, None)
    # ... and as unit 0 against the golden digest
    _, failed_vs_golden = SIM_LOGISTIC.check(state, 0, bad, golden)
    return failed_vs_reference == 1 and failed_vs_golden == 1


def refused(args: list[str], env: dict | None = None) -> bool:
    proc = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=120, env=env)
    return proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    from run import import_library

    import_library()
    nproc = len(os.sched_getaffinity(0))
    base = ["--seed", "0", "--seconds", "1", "--trace", "0"]
    results = {
        "flipped-frame-byte-fails": flipped_frames_fail(),
        "changed-csv-digit-fails": changed_csv_digit_fails(),
        "unknown-workload-refused": refused(["--workload", "no-such-workload", *base]),
        "blas-cap-above-nproc-refused": refused(
            ["--workload", "analyze", *base],
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(nproc + 1)}),
    }
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

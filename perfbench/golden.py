"""Golden SHA-256 digests of seeded outputs, and the fixed frame grid.

``golden.json`` pins, at the default seed, the first unit's outputs of
each workload (codec frames, simulator CSVs, the analyze report) and the
frames of a small fixed grid that covers both variants, s in {0, 63},
m in {1 (d'=1), 16, 256}, ragged tails and all-zero segments. A change
that alters any of these bits fails the benchmark's correctness check.

Re-record only for a deliberate format change, from the repository root:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GRID_SEED = 20191111
# (codebook method, d', m, d): every d leaves a ragged tail when d' > 1
GRID = (("random-gaussian", 1, 1, 37),
        ("random-rotation", 16, 16, 105),
        ("random-gaussian", 16, 256, 105))


def grid_frames() -> dict[str, bytes]:
    import numpy as np

    from hsq import codebook, quantizers, rng, wire
    from workloads import MODES, seeded_gradient

    gen = np.random.default_rng(GRID_SEED)
    frames = {}
    for method, dp, m, d in GRID:
        cb = codebook.generate(method, dp, m, GRID_SEED)
        g = seeded_gradient(gen, d, dp)
        g[dp:2 * dp] = 0.0  # at least one all-zero segment
        for variant, s in MODES:
            stream = rng.Stream(GRID_SEED).derive("grid", dp, m, s)
            cg = quantizers.compress(g, cb, s, variant, stream)
            frames[f"d'{dp}-m{m}-{variant.value}-s{s}"] = wire.encode_frame(cg)
    return frames


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def record() -> dict:
    from workloads import DEFAULT_SEED, WORKLOADS, sha256

    out = {"seed": DEFAULT_SEED, "workloads": {}, "grid": {}}
    for name, wl in WORKLOADS.items():
        out["workloads"][name] = wl.unit(wl.setup(DEFAULT_SEED), 0).digest
    out["grid"] = {k: sha256(f) for k, f in grid_frames().items()}
    return out


if __name__ == "__main__":
    from run import import_library

    import_library()
    digests = record()
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    json.dump(digests, sys.stdout, indent=2)
    sys.stdout.write("\n")

"""Write perfbench/digests.json: the input hashes the benchmark checks.

    python3 perfbench/record_digests.py

Records, for the development seed and the held-out seed, the sha256 of each
workload's set-up inputs, and the sha256 of the graph6 of every pooled
200-vertex triangulation.  Re-run only when the inputs are meant to change;
a run whose inputs differ from these hashes reports ``correct: false``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from pursuit.constructions import random_planar_triangulation  # noqa: E402
from pursuit.graphs import to_graph6  # noqa: E402

DEV_SEED = 1
HELDOUT_SEED = 7919


def main() -> int:
    out = {"dev_seed": DEV_SEED, "heldout_seed": HELDOUT_SEED, "inputs": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.NAMES:
            per_seed = {}
            for seed in (DEV_SEED, HELDOUT_SEED):
                digest = workloads.prepare(name, seed, tmp, {}).digest
                if digest is not None:
                    per_seed[str(seed)] = digest
            out["inputs"][name] = per_seed
    out["triangulations"] = [
        hashlib.sha256(
            to_graph6(random_planar_triangulation(workloads.TRIANGULATION_N, i)).encode("ascii")
        ).hexdigest()
        for i in range(workloads.TRIANGULATION_POOL)
    ]
    with open(os.path.join(HERE, "digests.json"), "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

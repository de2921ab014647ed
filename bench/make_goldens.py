"""Record the expected outputs the benchmark's oracles compare against.

The golden files hold what superhopf printed at the commit that introduced
the benchmark: the ``cli-suite`` reports, the ``dense-span`` dimensions and
bases, and digests of the ``straighten`` random-pair products for seeds
0..63.  Regenerate them only when an output change is intended:

    python3 bench/make_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

DIGEST_SEEDS = range(64)


def outputs(cls, seed: int, size: str):
    workload = cls(seed, size)
    try:
        ops = workloads.Operations()
        results = workload.run(ops)
        if ops.failed:
            raise SystemExit(f"{cls.__name__} ({size}): {ops.failed} operations failed")
        return workload, results
    finally:
        workload.close()


def main():
    goldens = {"cli_suite.json": {}, "dense_span.json": {},
               "straighten_pairs.json": {}}
    for size in ("full", "smoke"):
        _, results = outputs(workloads.CliSuite, 0, size)
        goldens["cli_suite.json"][size] = [text for _, text in results]
        workload, results = outputs(workloads.DenseSpan, 0, size)
        goldens["dense_span.json"][size] = workload.verdicts(results)
        digests = {}
        for seed in DIGEST_SEEDS:
            pairs = workloads.Straighten(seed, size).pairs
            digests[str(seed)] = workloads.digest([a * b for a, b in pairs])
        goldens["straighten_pairs.json"][size] = digests
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in goldens.items():
        with open(workloads.GOLDEN_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()

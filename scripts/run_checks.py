#!/usr/bin/env python3
"""Run every verification suite on the built-in algebras.

Writes one report (plus a key-value summary) per algebra into the output
directory and prints a one-line digest.  Exits nonzero if any suite fails.

    python3 scripts/run_checks.py --out-dir out/
"""

import argparse
import sys
from pathlib import Path

from superhopf.catalog import BUILTINS
from superhopf.cli import main as cli_main


def run(out_dir: Path, seed: int) -> int:
    worst = 0
    for algebra in BUILTINS:
        out = out_dir / f"checks-{algebra}.txt"
        code = cli_main(["check", "all", "--algebra", algebra,
                         "--seed", str(seed), "--out", str(out)])
        statuses = [line.rsplit(" ", 1)[1]
                    for line in out.read_text(encoding="utf-8").splitlines()
                    if line.startswith("CHECK ")]
        n_checks, n_fail = len(statuses), statuses.count("FAIL")
        print(f"{algebra}: {n_checks} checks, {n_fail} failures -> {out}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sys.exit(run(args.out_dir, args.seed))

"""One repetition of one workload, in a fresh single-threaded process.

``run.py`` starts this script once per repetition, so every repetition pays
the interpreter start, the imports and cold caches, as a command-line user
does.  The script prints one JSON object on its last line of output:
set-up and wall times, per-operation latencies, the calibrations taken in
the timed region, peak memory, the operation counts, oracle problems, a
digest of the verdicts and, when traced, the per-layer metrics.

    python3 bench/worker.py --workload straighten --seed 1 --size full \\
        --t0 <time.monotonic() when the process was started> --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
TRACE_DIR = BENCH_DIR / ".traces"  # spans of the last traced repetition per workload


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--t0", type=float, default=None,
                   help="time.monotonic() reading taken just before the start")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-id", default="",
                   help="identifier saved with the spans of a traced repetition")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    sys.path.insert(0, str(SRC_DIR))
    try:
        import superhopf
    except ImportError as exc:
        print(f"error: cannot import superhopf from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    if Path(superhopf.__file__).resolve().parent.parent != SRC_DIR:
        print(f"error: superhopf was imported from {superhopf.__file__}, "
              f"not from {SRC_DIR}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    try:
        setup_s = time.monotonic() - t0
        timed_from = tracer.mark() if tracer else 0
        ops = workloads.Operations()
        ops.calibrate()  # touches no superhopf code, so it makes no spans
        results = workload.run(ops)
        if ops.calibrations[-1][0] < len(ops.latencies):
            ops.calibrate()
        if tracer:
            tracer.enabled = False
        wall_s = sum(ops.latencies)  # the timed region, without calibrations
        out = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "latencies_s": ops.latencies,
            "calibrations": ops.calibrations,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "problems": workload.check(results),
            "verdict": workloads.digest(workload.verdicts(results)),
        }
        if tracer:
            layers = tracer.metrics(timed_from, wall_s)
            layers["cli.bytes_out"] = workload.bytes_out(results)
            layers["trace.wall_s"] = wall_s
            out["layers"] = layers
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write(TRACE_DIR / f"{args.workload}.spans", args.run_id)
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

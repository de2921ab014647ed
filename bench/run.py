"""superhopf benchmark: cold-cache workloads timed end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload straighten --seed 1 --trace 0
    python3 bench/run.py                      # every workload, default seed
    python3 bench/run.py --size smoke         # tiny inputs, one repetition

Workloads: straighten, hopf-maps, dense-span, cli-suite (see
``workloads.py`` for what each exercises and why).  The load is a closed
loop with one client: repetitions run one after another, each in a fresh
single-threaded Python process (``worker.py``) so caches start cold, and
each repetition's operations run one at a time.  Repetitions continue for
``run_seconds`` from ``BENCHMARK.json``; ``--seconds`` is accepted only with
that value, so every run of every commit has the same length.  The smoke
size runs a single repetition.

With ``--trace 0`` the end-to-end metrics are printed:

    wall_s       s   inputs ready to the last verdict (oracles run after it):
                     the sum of the operations' latencies
    setup_s      s   process start to inputs ready: imports, sessions,
                     fixtures and seeded inputs
    peak_rss_mb  MB  ru_maxrss of the repetition's process
    op_p50_ms    ms  median latency of one operation of the closed loop
    op_p98_ms    ms  98th percentile of the same latencies

Times are in seconds at the reference host speed.  The host is shared, and
its speed drifts by a third or more, within a process and between
processes, over fractions of a second to minutes.  So the closed loop also
times a fixed loop of the benchmark's own Fraction and dict work
(``workloads.calibrate``) before the first operation, after the last, and
between operations every 0.3 s of operation time.  Each operation's
latency is multiplied by ``CAL_REF_S``, the loop's time on the reference
host (2 shared cores of an Intel Xeon VM, CPython 3.11.7), over the mean of
the two calibrations around it; ``setup_s`` is scaled by the repetition's
mean calibration.  An operation's latency is then its median over the
repetitions (every repetition runs the same operations in the same order);
``wall_s`` is the sum and ``op_p50_ms`` and ``op_p98_ms`` are quantiles of
those per-operation values.  ``setup_s`` and ``peak_rss_mb`` are medians
over the repetitions.  The report lines also show the unscaled median wall
time and the median calibration time.

With ``--trace 1`` each round runs one untraced and one traced repetition;
the traced one wraps each layer's public functions (``spans.py``), writes
its spans to ``bench/.traces/`` and reports the per-layer metrics and the
tracing overhead (traced minus untraced wall time).  Traced verdicts must
equal untraced ones.

Metric names and units are those declared in ``BENCHMARK.json``.  Every
result is checked by an oracle outside the timed region.  The last line of
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every operation
succeeded and every oracle agreed; it is 2 when a repetition could not run
at all (for example, when ``src/superhopf`` is missing), and then no result
is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
WORKLOADS = ("straighten", "hopf-maps", "dense-span", "cli-suite")
DEFAULT_SEED = 1
TIME_LIMIT_S = 170  # every run must end within 180 s
CAL_REF_S = 0.018  # workloads.calibrate() on the reference host


class RepetitionError(Exception):
    """A worker process failed to produce a result."""


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    return spec["run_seconds"], units


def repetition(workload, seed, size, traced, deadline, run_id=""):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced))]
    if traced:
        cmd += ["--run-id", run_id]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepetitionError(f"{workload}: repetition exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(f"{workload}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def speeds(rep):
    """How much faster than the reference host the repetition ran: for set-up,
    and for each operation, from the calibrations on either side of it."""
    cals = rep["calibrations"]
    per_op = []
    for (done, before), (until, after) in zip(cals, cals[1:]):
        per_op += [2 * CAL_REF_S / (before + after)] * (until - done)
    return CAL_REF_S / statistics.fmean(c for _, c in cals), per_op


def end_to_end(reps):
    """The end-to-end metrics of a run, from its untraced repetitions."""
    setup, scaled = [], []
    for r in reps:
        rep_speed, op_speeds = speeds(r)
        setup.append(r["setup_s"] * rep_speed)
        scaled.append([1000 * x * k for x, k in zip(r["latencies_s"], op_speeds)])
    ms = sorted(statistics.median(op) for op in zip(*scaled))
    # the timed region is the operations back to back, so the wall time of a
    # typical repetition is the sum of the operations' medians
    return {"wall_s": sum(ms) / 1000,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "op_p50_ms": statistics.median(ms),
            "op_p98_ms": (statistics.quantiles(ms, n=50, method="inclusive")[48]
                          if len(ms) > 1 else ms[0])}


def run_workload(workload, seed, size, seconds, traced, units, deadline):
    """Repeat the workload for ``seconds``; return its result and report lines."""
    plain, traced_reps = [], []
    start = time.monotonic()
    while not plain or (size == "full" and time.monotonic() - start < seconds):
        plain.append(repetition(workload, seed, size, False, deadline))
        if traced:
            run_id = f"{workload}-seed{seed}-rep{len(traced_reps)}"
            traced_reps.append(repetition(workload, seed, size, True, deadline, run_id))
    reps = plain + traced_reps
    problems = [p for rep in reps for p in rep["problems"]]
    if len({rep["verdict"] for rep in reps}) > 1:
        problems.append("verdicts differ between repetitions"
                        + (" (traced vs untraced)" if traced else ""))
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    lines = [f"{workload} (seed {seed}, size {size}): {len(plain)} repetitions, "
             f"fail_ratio {failed / attempted:.4g} ({failed} of {attempted} operations)"]
    raw_wall = statistics.median(r["wall_s"] for r in plain)
    cal = statistics.median(c for r in plain for _, c in r["calibrations"])
    lines.append(f"  unscaled wall_s {raw_wall:.6g} s, calibration {cal:.4g} s "
                 f"(reference {CAL_REF_S} s)")
    if traced:  # per-layer times are unscaled seconds
        values = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        values["trace.overhead_s"] = values["trace.wall_s"] - raw_wall
        declared = units["per_layer"]
    else:
        values = end_to_end(plain)
        declared = units["end_to_end"]
    if set(values) != set(declared):
        raise RepetitionError(f"{workload}: metrics {sorted(set(values) ^ set(declared))} "
                              "are not both measured and declared in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    lines += [f"  {name:36s} {values[name]:12.6g} {unit}" for name, unit in declared.items()]
    lines += [f"  PROBLEM: {p}" for p in problems]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="superhopf cold-cache benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="must equal run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)
    try:
        seconds, units = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds} "
              "in BENCHMARK.json", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.size, seconds,
                                         bool(args.trace), units, deadline)
        except RepetitionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] and not total["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())

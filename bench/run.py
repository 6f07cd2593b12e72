#!/usr/bin/env python3
"""The tempex benchmark: one command, three workloads.

    python3 bench/run.py --workload tag|train|cv --seed N --seconds S \
        --trace 0|1

Run from the repository root.  The program is imported from `src/` in
this process; the load is this one process, with no threads or pools.

Each workload sets up its inputs from the seed (several times, to time
set-up), then repeats one fixed-size job in whole rounds while another
fits in `--seconds`, timing each of the job's parts (its `tempex`
invocations) on its own at the reference speed, checks the job's output against the generator's gold and
prints one JSON line.  With `--trace 0` it reports the end-to-end metrics
of untraced rounds; with `--trace 1` each round runs the job untraced and
then traced, and it reports the per-layer metrics of the traced runs and
the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tag", "train", "cv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tempex" / "__init__.py").is_file():
        print(f"error: no tempex sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # By default numpy's OpenBLAS runs training's BLAS calls on worker
    # threads that compete with the interpreter thread on a small machine,
    # by an amount that changes from one corpus to the next (see
    # CHANGES.md).  One thread makes job time the cost of the program's
    # own code.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# The machine's speed changes by a third or more from one minute to the
# next, as other tenants of the host come and go (see README.md).  Every
# timing is therefore taken together with a fixed pure-Python reference
# loop run just before and just after it, and reported at the reference
# speed: scaled by REF_S over the loop's measured time.  REF_S is about
# the loop's time on this machine when the host is busy, so reported
# times are close to wall times then.
REF_LOOPS = 100_000
REF_S = 0.010


def reference_s() -> float:
    """Median time of three runs of the reference loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed(fn):
    """Call fn(): (its result, wall seconds, reference seconds around)."""
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, (before + reference_s()) / 2


def _timed_round(parts):
    """Run each part of the job once: (outputs, [(wall, reference)] per
    part), or (None, None) if one raised."""
    gc.collect()
    outputs, times = [], []
    for part in parts:
        try:
            output, wall, ref = timed(part)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None, None
        outputs.append(output)
        times.append((wall, ref))
    return outputs, times


def scaled(wall: float, ref: float) -> float:
    """A wall time at the reference speed."""
    return wall * REF_S / ref


def measure(workload, seconds: float, trace: bool) -> dict:
    setup_times = [timed(workload.setup)[1:]
                   for _ in range(workload.setup_reps)]

    from tracing import Tracer
    parts = workload.parts()
    part_times = [[] for _ in parts]
    overheads, layer_rounds = [], []
    attempted = failed = 0
    output = tracer = None
    # Whole rounds while the next one, as long as the last, still ends
    # by the deadline; at least one.
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        out, times = _timed_round(parts)
        attempted += workload.ops_per_round
        if out is None:
            failed += workload.ops_per_round
        else:
            output = out
            for samples, sample in zip(part_times, times):
                samples.append(sample)
        if trace:
            tracer = Tracer()
            with tracer:
                traced_out, traced_times = _timed_round(parts)
            attempted += workload.ops_per_round
            if traced_out is None:
                failed += workload.ops_per_round
            elif out is not None:
                overheads.append(sum(scaled(*t) for t in traced_times)
                                 - sum(scaled(*t) for t in times))
                layer_rounds.append(tracer.metrics())
        now = time.perf_counter()
        if 2 * now - round_start > deadline:
            break

    # Each part's median over the rounds, summed: a slow spell of the
    # machine during one part of one round does not count.
    job_s = sum(statistics.median(scaled(*t) for t in samples)
                for samples in part_times if samples)
    wall_job_s = sum(statistics.median(wall for wall, _ in samples)
                     for samples in part_times if samples)
    correct, quality = False, workload.empty_quality()
    if output is not None:
        try:
            quality = workload.check(output)
            correct = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
    if not part_times[0] or (trace and not layer_rounds):
        correct = False

    if trace:
        metrics = {}
        for name in (layer_rounds[0] if layer_rounds else {}):
            unit = layer_rounds[0][name][1]
            metrics[name] = (statistics.median(
                r[name][0] for r in layer_rounds), unit)
        for name, value in quality.items():
            metrics[f"evaluation.{name}"] = (value, "ratio")
        metrics["trace.overhead_s"] = (
            statistics.median(overheads) if overheads else 0.0, "s")
        metrics["machine.wall_job_s"] = (wall_job_s, "s")
        metrics["machine.ref_ms"] = (1000 * statistics.median(
            ref for samples in part_times for _, ref in samples)
            if part_times[0] else 0.0, "ms")
        if tracer is not None:
            dump = tracer.dump()
            dump.update(workload=workload.name, seed=workload.seed)
            (OUT / f"trace-{workload.name}-seed{workload.seed}.json"
             ).write_text(json.dumps(dump), encoding="utf-8")
    else:
        metrics = {
            "setup_s": (statistics.median(
                scaled(*t) for t in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "job_s": (job_s, "s"),
            "tok_per_s": (workload.tokens / job_s if job_s else 0.0,
                          "tok/s"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())

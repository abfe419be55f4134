"""Benchmark of the stmarkov pipeline: CMI ladders, decoder curves, tableau shots.

Run from the repository root:

    python3 markovbench/run.py --workload cmi_sweep --seed 1 --seconds 30 --trace 0

Workloads: cmi_sweep, toric_ladder, decoder_curves, tableau_shots (see
README.md). The run sets the workload up several times and reports the
median set-up time, then solves the workload's fixed problem in whole rounds
until ``--seconds`` are spent (at least three rounds), and checks the
outputs. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of
the result with its provenance, and the spans of a traced run, are written
under ``markovbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The set-up is milliseconds to a tenth of a second: it is repeated after
# every round, so its median spans the same stretch of the run as the rounds.
SETUP_REPS_PER_ROUND = 5
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

SETUP_LAYERS = ["spacetime.build_s", "decoder.graph_s", "foliation.foliate_s", "tableau.init_s"]
PASS_TIMES = [
    "sampler.sample_s", "sampler.patterns_s", "markov.ladder_s", "markov.histogram_s",
    "markov.tripartition_s", "markov.fit_s", "decoder.rate_s", "decoder.decode_s",
    "decoder.syndrome_s", "decoder.threshold_s", "tableau.copy_s", "foliation.map_s",
    "tableau.apply_z_s", "tableau.measure_s", "tableau.detectors_s",
]
PASS_COUNTS = [
    "sampler.batches", "sampler.samples", "sampler.mech_draws", "sampler.pattern_calls",
    "markov.histograms", "markov.rungs", "markov.reliable_rungs", "markov.fits",
    "decoder.shots", "decoder.logical_failures", "tableau.shots", "tableau.measurements",
]
# Spans whose self time is the layer metric; markov.ladder's self time is the
# histogram, entropy and jackknife work, decoder.rate's the error draws and
# the syndrome product.
SELF_TIME_OF = {"markov.histogram_s": "markov.ladder", "decoder.syndrome_s": "decoder.rate"}


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "seed": seed,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_setup(wl, tr):
    gc.collect()
    t0 = time.perf_counter()
    state = wl.setup(tr)
    return state, time.perf_counter() - t0


def timed_round(wl, state, tr):
    from tracing import instrumented

    gc.collect()
    t0 = time.perf_counter()
    with instrumented(tr):
        outputs = wl.run_round(state, tr)
    return time.perf_counter() - t0, outputs


def setup_layer_metrics(tracers) -> dict:
    out = {name: 0.0 for name in SETUP_LAYERS}
    for tr in tracers:
        total, _ = tr.totals()
        for name in SETUP_LAYERS:
            out[name] += total.get(name[:-2], 0.0) / len(tracers)
    out["spacetime.models"] = tracers[-1].counts.get("spacetime.models", 0)
    return out


def pass_layer_metrics(tracers, untraced_times, traced_times) -> dict:
    k = len(tracers)
    total, own = {}, {}
    for tr in tracers:
        t, s = tr.totals()
        for name, v in t.items():
            total[name] = total.get(name, 0.0) + v / k
        for name, v in s.items():
            own[name] = own.get(name, 0.0) + v / k
    out = {}
    for metric in PASS_TIMES:
        span = SELF_TIME_OF.get(metric)
        out[metric] = own.get(span, 0.0) if span else total.get(metric[:-2], 0.0)
    counts = tracers[0].counts
    for metric in PASS_COUNTS:
        out[metric] = counts.get(metric, 0)
    rungs = out["markov.rungs"]
    out["markov.reliable_ratio"] = out["markov.reliable_rungs"] / rungs if rungs else 0.0
    decodes = [d for tr in tracers for d in tr.durations("decoder.decode")]
    if decodes:
        out["decoder.decode_p50_us"] = 1e6 * statistics.median(decodes)
        out["decoder.decode_p99_us"] = 1e6 * statistics.quantiles(decodes, n=100)[98]
    else:
        out["decoder.decode_p50_us"] = out["decoder.decode_p99_us"] = 0.0
    traced_wall = statistics.median(traced_times)
    out["bench.traced_wall_s"] = traced_wall
    out["bench.trace_overhead_s"] = traced_wall - statistics.median(untraced_times)
    # Self times partition the top-level spans; the share they cover of the
    # traced round is how much of the wall time the layers account for.
    mean_round = statistics.fmean(traced_times)
    covered = statistics.fmean(tr.top_level_time() for tr in tracers)
    out["bench.layer_share"] = covered / mean_round
    return out


def write_result(name: str, seed: int, trace: int, record: dict, tracers=None) -> None:
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    if tracers:
        with open(stem + ".spans.jsonl", "w") as f:
            for r, tr in enumerate(tracers):
                for rec in tr.dump():
                    f.write(json.dumps({"round": r, **rec}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One process, one thread: pin numeric libraries before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "stmarkov")):
        print(f"error: package source not found at {src}/stmarkov", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    from tracing import NullTracer, Tracer

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    null = NullTracer()

    new_tracer = Tracer if args.trace else NullTracer
    setup_tracers = [new_tracer()]
    state, t = timed_setup(wl, setup_tracers[0])
    setup_times = [t]
    wl.prepare_inputs(state)

    def resetup():
        for _ in range(SETUP_REPS_PER_ROUND):
            setup_tracers.append(new_tracer())
            setup_times.append(timed_setup(wl, setup_tracers[-1])[1])

    # Untraced runs repeat untraced rounds; traced runs alternate an untraced
    # and a traced round, so the tracing overhead is measured side by side.
    start = time.perf_counter()
    untraced_times, traced_times, outputs, tracers, cycle_walls = [], [], [], [], []
    while True:
        t0 = time.perf_counter()
        wall, outs = timed_round(wl, state, null)
        untraced_times.append(wall)
        outputs.append(outs)
        if args.trace:
            tr = Tracer()
            wall, outs = timed_round(wl, state, tr)
            tr.resolve_pending()
            traced_times.append(wall)
            outputs.append(outs)
            tracers.append(tr)
        resetup()
        cycle_walls.append(time.perf_counter() - t0)
        cycles = len(cycle_walls)
        elapsed = time.perf_counter() - start
        enough = cycles >= (MIN_TRACED_PAIRS if args.trace else MIN_ROUNDS)
        if enough and elapsed + statistics.median(cycle_walls) > args.seconds:
            break
    setup_s = statistics.median(setup_times)
    rss = peak_rss_mb()

    problems = wl.check(state, outputs)
    failed = sum(isinstance(o, workloads.OpFailed) for outs in outputs for o in outs[: wl.n_ops])
    attempted = wl.n_ops * len(outputs)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        values = {**setup_layer_metrics(setup_tracers),
                  **pass_layer_metrics(tracers, untraced_times, traced_times)}
        units = {}
        for name in values:
            if name.endswith("_s"):
                units[name] = "s"
            elif name.endswith("_us"):
                units[name] = "us"
            elif name.endswith("_ratio") or name.endswith("_share"):
                units[name] = "ratio"
            else:
                units[name] = "count"
    else:
        wall_s = statistics.median(untraced_times)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "shots_per_s": wl.shots_per_round / wall_s,
            "peak_rss_mb": rss,
        }
        units = {"setup_s": "s", "wall_s": "s", "shots_per_s": "1/s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "inputs": wl.describe(),
        "provenance": provenance(args.seed),
        "seconds": args.seconds,
        "rounds": len(outputs),
        "round_times_s": untraced_times,
        "traced_round_times_s": traced_times,
        "setup_times_s": setup_times,
        "problems": problems,
        "result": result,
    }
    write_result(args.workload, args.seed, args.trace, record, tracers)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

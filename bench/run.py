"""chdisc benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload certify --seed 0 --seconds 15 --trace 0

Run from the root of a chdisc checkout; the program is imported from
``src/``.  The run sets up the workload ``SETUP_REPEATS`` times (input
generation plus one checked, untimed warm-up item), then repeats whole
rounds of items until ``--seconds`` have passed, checking every item's
output.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details (sample counts, the tail latency, failures,
environment).

With ``--trace 0`` the metrics are the end-to-end ones in ``END_TO_END``;
item times in them are normalised to a nominal host speed (see
``hostspeed.py``), and the raw ones are in the detail line.
With ``--trace 1`` untraced and traced rounds alternate; the metrics are
``tracer.LAYER_METRICS`` averaged per traced round, plus the tracing
overhead, and the last traced round's spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: name -> (unit, better); BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "hostnorm_items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def load_program():
    """Pin BLAS threads, then import chdisc from the checkout and the workloads.

    BLAS must be pinned before numpy is first imported, so the benchmark's
    own modules that import numpy are loaded here.
    """
    for var in THREAD_ENV:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "chdisc" / "__init__.py").is_file():
        raise SystemExit(f"error: no chdisc sources under {src}; run from a chdisc checkout")
    sys.path.insert(0, str(src))
    import chdisc
    import hostspeed
    import tracer
    import workloads

    if Path(chdisc.__file__).resolve().parent != src / "chdisc":
        raise SystemExit(f"error: imported chdisc from {chdisc.__file__}, not from {src}")
    return hostspeed, tracer, workloads


class Tally:
    """Items attempted and failed, and the latencies of the timed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed_correct = 0
        self.failures = []
        self.latencies = []

    def record(self, label, latency, problem, timed):
        self.attempted += 1
        if timed:
            self.latencies.append(latency)
        if problem is None:
            self.timed_correct += timed
            return
        self.failed += 1
        self.failures.append(f"{label}: {problem}")
        print(f"FAILED {label}: {problem}", file=sys.stderr)


def run_item(workload, item, tally, timed, tracer=None):
    """Run and check one item; the latency covers the run, not the check."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(item)
        else:
            tracer.item = f"{tally.attempted}:{item.label}"  # unique within the run
            with tracer.span("item"):
                out = workload.run(item)
        latency = time.perf_counter() - start
        problem = workload.check(item, out)
    except Exception as exc:  # an unexpected raise is a failed item; the run goes on
        latency = time.perf_counter() - start
        problem = f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        out = None
    tally.record(item.label, latency, problem, timed)
    return out


def run_round(workload, items, tally, tracer=None):
    """Run one round; returns its wall time and its number of correct items."""
    correct = tally.timed_correct
    start = time.perf_counter()
    for item in items:
        run_item(workload, item, tally, True, tracer)
    return time.perf_counter() - start, tally.timed_correct - correct


def setup(cls, seed, workdir, tally):
    """Build the workload and run its warm-up item, SETUP_REPEATS times.

    Returns the last instance and the duration of each repeat.
    """
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(seed, workdir)
        run_item(workload, workload.warmup(), tally, False)
        durations.append(time.perf_counter() - start)
    return workload, durations


def tail(latencies):
    """The highest percentile with at least ten items beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    return {"value": sorted(latencies)[n - 11] * 1e3, "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_ENV},
    }


def measure(workload, seconds, tally, hostspeed):
    """Untraced rounds until ``seconds`` have passed; end-to-end metrics.

    Before the first item and after every item the reference computation
    runs on the CPUs in turn, for at least a tenth of the item's latency,
    so the reference samples the host over the whole run.  Throughput is
    correct items per second of item time, with the time scaled to the
    nominal host speed from the run's mean reference time (see
    ``hostspeed``).  A slow stretch of the host slows items and reference
    alike and so does not move it.  An item's normalised latency uses the
    mean of the reference samples nearest to it, one per CPU on each side.
    Latencies, normalised and raw, and raw throughput go to the detail
    line.  The normalised median latency is not an end-to-end metric: the
    few samples next to an item give its host speed less well than a whole
    run's samples give the run's, and on ``pipeline``, whose items take
    four seconds, its spread between runs was twice the throughput's.
    """
    sampler = hostspeed.Sampler()
    refs = [sampler.sample(0.0)]  # refs[k] before item k, refs[k + 1] after it
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for item in workload.round(rounds):
            run_item(workload, item, tally, True)
            refs.append(sampler.sample(tally.latencies[-1] / 10))
        rounds += 1
    raw = tally.latencies
    width = max(1, len(sampler.cpus))

    def around(k):
        before = [r for b in refs[max(0, k + 1 - width):k + 1] for r in b]
        after = [r for b in refs[k + 1:k + 1 + width] for r in b]
        return before[-width:] + after[:width]

    def speed(ref_times):
        return (hostspeed.NOMINAL_S / statistics.fmean(ref_times)) ** hostspeed.SENSITIVITY

    norm = [t * speed(around(k)) for k, t in enumerate(raw)]
    samples = [r for b in refs for r in b]
    scale = speed(samples)
    metrics = {"hostnorm_items_per_s": tally.timed_correct / (sum(raw) * scale)}
    detail = {
        "rounds": rounds,
        "item_p50_samples": len(raw),
        "hostnorm_item_p50_ms": statistics.median(norm) * 1e3,
        "hostnorm_item_tail_ms": tail(norm),
        "raw": {"items_per_s": tally.timed_correct / sum(raw),
                "item_p50_ms": statistics.median(raw) * 1e3, "item_tail_ms": tail(raw)},
        "reference_ms": {"mean": statistics.fmean(samples) * 1e3,
                         "median": statistics.median(samples) * 1e3,
                         "samples": len(samples), "nominal": hostspeed.NOMINAL_S * 1e3},
    }
    return metrics, detail


def measure_traced(workload, seconds, tally, tracer_mod, path):
    """Alternate untraced and traced rounds; per-layer metrics per traced round."""
    tr = tracer_mod.Tracer()
    totals = dict.fromkeys(tracer_mod.LAYER_METRICS, 0.0)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        r = len(traced)
        plain.append(run_round(workload, workload.round(r), tally)[0])
        tr.reset()
        with tr.installed():
            traced.append(run_round(workload, workload.round(r), tally, tr)[0])
        for name, value in tracer_mod.round_metrics(tr.spans, tr.counters).items():
            totals[name] += value
    metrics = {name: value / len(traced) for name, value in totals.items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    fields = ("id", "name", "start", "end", "parent", "item")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"span_fields": fields, "spans": tr.spans, "counters": tr.counters,
                   "rounds": len(traced)}, fh, separators=(",", ":"))
    overhead = {"untraced_round_s": plain, "traced_round_s": traced,
                "fraction": metrics["trace.overhead_s"] / statistics.median(plain)}
    return len(traced), metrics, overhead


def main(argv=None):
    hostspeed, tracer_mod, wl = load_program()
    import_s = time.perf_counter() - _START

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    tally = Tally()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        workload, setup_durations = setup(wl.WORKLOADS[args.workload], args.seed, workdir, tally)
        detail["setup"] = {"import_s": import_s, "repeats_s": setup_durations}
        if args.trace:
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            detail["rounds"], metrics, detail["trace_overhead"] = measure_traced(
                workload, args.seconds, tally, tracer_mod, path)
            detail["spans_file"] = str(path.relative_to(ROOT))
        else:
            metrics, measured = measure(workload, args.seconds, tally, hostspeed)
            metrics["setup_s"] = import_s + statistics.median(setup_durations)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            detail.update(measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = tracer_mod.LAYER_METRICS if args.trace else END_TO_END
    detail.update({
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures[:10],
        "environment": environment(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

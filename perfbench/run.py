"""Layer-by-layer benchmark: Table I on three execution paths plus a
warm-cache ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload table1_vec8 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload with tracing off and reports the
end-to-end metrics, set-up time and peak memory; the wall-clock metrics
it prints before them are for reading only. ``--trace 1`` spends half of
``--seconds`` untraced, which gives the wall-clock metrics, and half
with the layer wrappers (``perfbench/layers.py``) and a span-summing
telemetry sink installed, and reports the wall-clock and the per-layer
metrics. Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Workloads, metrics and the reference per-layer shares are
documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable

# One BLAS thread per process. The loopback workload runs two worker
# processes on a two-core host; with OpenBLAS's default of one thread per
# core their spinning threads oversubscribe the cores and a Table I
# campaign takes 23.4 s instead of 5.5 s, with a spread to match. Set
# before numpy is first imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("table1_vec8", "table1_serial", "table1_loopback2", "serve_warm")
#: set-ups per run, the run's own and fresh-process ones; ``setup_s`` is
#: their median
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}

#: The host's speed drifts by a quarter to a half over minutes, so the
#: run-to-run spread of these exceeds any bound ``BENCHMARK.json`` may
#: set (see the README); the traced run reports them without a bound.
WALL_CLOCK_UNITS = {
    "campaign_s": "s",
    "submit_to_result_p50_s": "s",
    "submit_to_result_p90_s": "s",
    "campaigns_per_s": "1/s",
}
#: ``serve_warm`` reads its peak RSS when this many warm jobs are done
RSS_AFTER_JOBS = 100


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def make_workload(name: str, seed: int, workdir: str) -> Any:
    from workloads import Serve, Table1, steady_malloc

    steady_malloc()
    if name == "serve_warm":
        return Serve(seed, workdir)
    return Table1(
        seed,
        n_envs=1 if name == "table1_serial" else 8,
        remote=name == "table1_loopback2",
        workdir=workdir,
    )


def probe_setups(args: argparse.Namespace, count: int) -> list[float]:
    """Set the workload up in ``count`` fresh processes; each reports the
    time from its ``main()`` entry until the workload was ready."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120.0, check=False
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        samples.append(float(lines[1]))
    return samples


def timed_units(unit: Callable[[], float], seconds: float) -> tuple[list[float], float]:
    """Repeat ``unit`` (returns its own timing) for about ``seconds``: at
    least once, and no new unit once it would likely end past the limit.
    Each unit starts after a full garbage collection, so the previous
    unit's garbage does not add to its memory peak."""
    samples: list[float] = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        samples.append(unit())
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * statistics.median(samples) > seconds:
            return samples, elapsed


def peak_rss_mb(own_kb: int | None = None) -> float:
    """Peak RSS of this process (``own_kb`` if given) or, if larger, of
    its largest child."""
    if own_kb is None:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children) / 1024.0


def wall_clock(
    workload: Any, name: str, seconds: float
) -> tuple[dict[str, float], list[dict[str, Any]]]:
    """Run the timed part untraced for ``seconds``; returns the wall-clock
    metrics and, on ``serve_warm``, the samples of every warm job."""
    if name == "serve_warm":
        samples, wall = workload.window(seconds)
        latencies = [s["latency_s"] for s in samples]
        runs = [s["run_s"] for s in samples]
    else:
        latencies, wall = timed_units(workload.unit, seconds)
        runs, samples = latencies, []
    print(f"{len(latencies)} campaigns in {wall:.2f} s", flush=True)
    return {
        "campaign_s": statistics.median(runs),
        "submit_to_result_p50_s": statistics.median(latencies),
        "submit_to_result_p90_s": percentile(latencies, 90.0),
        "campaigns_per_s": len(latencies) / wall,
    }, samples


def end_to_end(workload: Any, args: argparse.Namespace) -> dict[str, float]:
    clocks, samples = wall_clock(workload, args.workload, args.seconds)
    for name, value in clocks.items():
        print(f"  {name:<36} {value:>14.6g} {WALL_CLOCK_UNITS[name]} (no bound)")
    if args.workload == "serve_warm":
        # the server keeps every job it ran, so its memory grows with the
        # number served: read the peak at a fixed count, not at the end
        own_kb = samples[min(RSS_AFTER_JOBS, len(samples)) - 1]["maxrss_kb"]
    else:
        workload.check_fingerprints()
        own_kb = None
    return {"peak_rss_mb": peak_rss_mb(own_kb)}


def traced(workload: Any, args: argparse.Namespace) -> dict[str, float]:
    """Half the run untraced, half traced; the wall-clock metrics of the
    untraced half and the per-layer metrics of the traced one."""
    from layers import LayerClock, SpanTotals, layer_metrics

    from repro.obs import Telemetry

    half = args.seconds / 2.0
    clock = LayerClock()
    spans = SpanTotals()
    measured: dict[str, tuple[float, int]] = {}
    extra = {"exec.worker_busy_share": 0.0, "exec.retries": 0}
    clocks, _ = wall_clock(workload, args.workload, half)
    untraced = clocks["submit_to_result_p50_s"]
    if args.workload == "serve_warm":
        clock.install()
        try:
            samples, wall = workload.window(half)
        finally:
            clock.uninstall()
        for key in ("post", "queue_wait", "run", "stream_tail"):
            values = [s[f"{key}_s"] for s in samples]
            measured[f"serve.{key}"] = (sum(values), len(values))
        traced_median = statistics.median(s["latency_s"] for s in samples)
    else:
        workload.trial_s, workload.retries = 0.0, 0
        if workload.remote:
            workload.stop_fleet()
            workload.start_fleet(traced=True)
        clock.install()
        try:
            units, _ = timed_units(lambda: workload.unit(Telemetry(spans)), half)
        finally:
            clock.uninstall()
        for totals in workload.stop_fleet() if workload.remote else []:
            clock.merge(totals)
        workload.check_fingerprints()
        wall = sum(units)
        workers = 2 if workload.remote else 1
        extra["exec.worker_busy_share"] = workload.trial_s / (workers * wall)
        extra["exec.retries"] = workload.retries
        traced_median = statistics.median(units)
    for name in ("serve.post", "serve.queue_wait", "serve.run", "serve.stream_tail"):
        measured.setdefault(name, (0.0, 0))
    metrics = layer_metrics(clock, spans, wall, measured)
    metrics.update(extra)
    metrics["obs.trace_overhead_share"] = traced_median / untraced - 1.0
    metrics["wall_s"] = wall
    metrics.update(clocks)
    return metrics


#: per-workload layers that must have done work in the traced run
REQUIRED_CALLS = {
    "table1_vec8": ("rl.sac_update_calls", "airdrop.vec_step_calls"),
    "table1_serial": ("rl.sac_update_calls", "airdrop.step_calls"),
    "table1_loopback2": ("rl.sac_update_calls", "net.send_frame_calls"),
    "serve_warm": ("exec.journal_record_calls",),
}


def layer_checks(workload: Any, name: str, metrics: dict[str, float]) -> None:
    for metric in REQUIRED_CALLS[name]:
        workload.checks.check(metrics[metric] > 0, f"{metric} is 0 in the traced run")
    if name == "serve_warm":
        workload.checks.check(
            metrics["exec.cache_hit_ratio"] == 1.0,
            f"exec.cache_hit_ratio is {metrics['exec.cache_hit_ratio']}, not 1.0",
        )


def run(args: argparse.Namespace, workdir: str, started: float) -> dict[str, Any]:
    workload = make_workload(args.workload, args.seed, workdir)
    try:
        workload.setup()
        if args.trace == 0:
            setups = [time.perf_counter() - started]
            setups += probe_setups(args, SETUP_REPEATS - 1)
            values = end_to_end(workload, args)
            values["setup_s"] = statistics.median(setups)
            units = END_TO_END_UNITS
        else:
            values = traced(workload, args)
            layer_checks(workload, args.workload, values)
            units = {name: _layer_unit(name) for name in values}
    finally:
        workload.close()
    checks = workload.checks
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    error_rate = len(checks.failures) / max(checks.attempted, 1)
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<36} {error_rate:>14.6g} ratio "
          f"({len(checks.failures)} of {checks.attempted} operations failed)")
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in values
        },
    }


def _layer_unit(name: str) -> str:
    if name in WALL_CLOCK_UNITS:
        return WALL_CLOCK_UNITS[name]
    if name.endswith("_calls") or name == "exec.retries":
        return "count"
    if name == "net.send_bytes":
        return "B"
    if name.endswith("_per_call") and "rows" in name:
        return "rows"
    if name.endswith("_s") or name.endswith("_s_per_call"):
        return "s"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # keep every temporary file of this process and its children in the checkout
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        if args.setup_probe:
            workload = make_workload(args.workload, args.seed, workdir)
            try:
                workload.setup()
                print("ready", time.perf_counter() - started, flush=True)
            finally:
                workload.close()
            return 0
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", flush=True)
        result = run(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still has its directory there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

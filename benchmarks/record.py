"""Benchmark recorder and regression gate for the CI performance budget.

``record`` mode runs a fixed set of named workloads (the Table I
campaign single-env, vectorized at ``n_envs=8``, and on the process
executor), takes the **min of k** wall-clock times per workload (minimum
is the standard low-noise estimator for CI runners) and writes a
schema'd ``BENCH_<sha>.json`` next to this file. The k rounds run
round-robin (round 1 of every workload, then round 2, ...), so host
drift over a recording moves every workload alike, and ratios such as
``vec8_speedup`` stay steady::

    PYTHONPATH=src python benchmarks/record.py --rounds 3

``compare`` mode gates a candidate recording against a committed
baseline and exits non-zero on a >``--threshold`` regression. It also
prints whether each workload's table fingerprint matches the
baseline's; that line never gates::

    PYTHONPATH=src python benchmarks/record.py \
        --compare benchmarks/BENCH_baseline.json BENCH_abc123.json

Each workload also records the campaign's table fingerprint, so a
recording doubles as a correctness witness: two recordings at the same
steps/seed on the same code must agree fingerprint-for-fingerprint, and
``table1_serial`` vs ``table1_vec8`` wall times back the repo's claimed
vectorization speedup (asserted ``>= --min-speedup`` at record time).

``--append-history FILE`` additionally appends one compact JSONL line
per successful recording (timestamp, sha, per-workload min + fingerprint
digest, derived speedup) — the across-commits performance trajectory CI
persists, where per-sha ``BENCH_<sha>.json`` artifacts individually
expire.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable

# One BLAS thread, as BENCH_baseline.json was recorded: with a pool per
# process, the process and loopback workloads oversubscribe a 2-vCPU
# runner (table1_process_vec8 read 21 s instead of 2-3 s) and the gate
# times the thread pool instead of the code. Set before numpy is first
# imported; the process and loopback workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

SCHEMA_VERSION = 1
#: above ``SACConfig.learning_starts`` (1000), so every SAC trial makes
#: gradient updates (606 per campaign); perfbench runs the same budget
DEFAULT_STEPS = 1100
DEFAULT_ROUNDS = 3
DEFAULT_THRESHOLD = 0.15

#: workloads newer than some committed baselines: absent on either side
#: of a comparison they are informational, never a gate failure
OPTIONAL_WORKLOADS = frozenset({"table1_loopback2"})


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _calibration() -> str:
    """Fixed CPU workload used to normalize timings across machines.

    Compare mode divides every candidate/baseline ratio by the
    calibration ratio, so a recording from a slower CI runner is not
    flagged as a regression merely for running on slower hardware.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    for _ in range(60):
        a = np.tanh(a @ a.T / 384.0)
    return f"{float(a.sum()):.6e}"


def _workloads(steps: int, seed: int) -> dict[str, Callable[[], Any]]:
    from repro.core.serialization import table_fingerprint
    from repro.paper import Scale, table1_campaign

    def campaign(**kwargs):
        def run():
            report = table1_campaign(
                seed=seed, scale=Scale(real_steps=steps), **kwargs
            ).run()
            assert all(t.ok for t in report.table), "benchmark campaign had failures"
            return table_fingerprint(report.table)

        return run

    def loopback2() -> str:
        """Coordinator + 2 local worker processes over 127.0.0.1.

        Times the full distributed path — worker spawn, handshake, task
        frames, outcome streaming — so regressions in the repro.net
        stack show up as wall time even when results stay identical.
        """
        from repro.net import RemoteExecutor

        executor = RemoteExecutor(max_workers=2, heartbeat_timeout=30.0)
        host, port = executor.address
        src = os.path.abspath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"{host}:{port}", "--no-cache"],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(2)
        ]
        try:
            executor.wait_for_workers(2, timeout=60.0)
            report = table1_campaign(
                seed=seed, scale=Scale(real_steps=steps), n_envs=8,
                executor=executor,
            ).run()
            assert all(t.ok for t in report.table), "loopback campaign had failures"
            return table_fingerprint(report.table)
        finally:
            executor.shutdown()
            for proc in workers:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)

    return {
        "calibration": _calibration,
        "table1_serial": campaign(),
        "table1_vec8": campaign(n_envs=8),
        "table1_process_vec8": campaign(
            n_envs=8, executor="process", max_workers=4
        ),
        "table1_loopback2": loopback2,
    }


def record(args: argparse.Namespace) -> int:
    import hashlib

    sha = _git_sha()
    workloads = _workloads(args.steps, args.seed)
    times: dict[str, list[float]] = {name: [] for name in workloads}
    fingerprints: dict[str, set[str]] = {name: set() for name in workloads}
    for round_index in range(args.rounds):
        for name, run in workloads.items():
            start = time.perf_counter()
            fingerprint = run()
            times[name].append(time.perf_counter() - start)
            fingerprints[name].add(
                hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]
            )
            print(f"  {name} round {round_index + 1}/{args.rounds}: "
                  f"{times[name][-1]:.3f}s", flush=True)
    results: dict[str, dict[str, Any]] = {}
    for name in workloads:
        if len(fingerprints[name]) != 1:
            print(f"FAIL: {name} is not run-to-run deterministic: {fingerprints[name]}",
                  file=sys.stderr)
            return 1
        results[name] = {
            "min_s": min(times[name]),
            "times_s": [round(t, 6) for t in times[name]],
            "fingerprint_sha": fingerprints[name].pop(),
        }

    speedup = results["table1_serial"]["min_s"] / results["table1_vec8"]["min_s"]
    payload = {
        "format_version": SCHEMA_VERSION,
        "sha": sha,
        "steps": args.steps,
        "seed": args.seed,
        "rounds": args.rounds,
        "workloads": results,
        "derived": {"vec8_speedup": round(speedup, 4)},
    }
    output = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), f"BENCH_{sha}.json"
    )
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {output}")
    print(f"n_envs=8 speedup over single-env: {speedup:.2f}x "
          f"(floor {args.min_speedup:.1f}x)")
    if speedup < args.min_speedup:
        print(f"FAIL: vectorized speedup {speedup:.2f}x is below the "
              f"{args.min_speedup:.1f}x floor", file=sys.stderr)
        return 1
    if args.append_history:
        append_history(args.append_history, payload)
        print(f"appended history line to {args.append_history}")
    return 0


def append_history(path: str, payload: dict[str, Any]) -> None:
    """Append one compact trajectory line for a successful recording.

    The line keeps only what a trend plot or bisection needs — min wall
    time and fingerprint digest per workload — so years of history stay
    a few kilobytes. Appended after the gate checks pass, so the history
    never contains recordings that failed determinism or the speedup
    floor.
    """
    line = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": payload["sha"],
        "steps": payload["steps"],
        "seed": payload["seed"],
        "rounds": payload["rounds"],
        "workloads": {
            name: {
                "min_s": entry["min_s"],
                "fingerprint_sha": entry["fingerprint_sha"],
            }
            for name, entry in sorted(payload["workloads"].items())
        },
        "vec8_speedup": payload["derived"]["vec8_speedup"],
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True))
        handle.write("\n")


def _load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format_version") != SCHEMA_VERSION:
        raise SystemExit(f"{path}: unsupported format_version "
                         f"{payload.get('format_version')!r}")
    return payload


def compare(args: argparse.Namespace) -> int:
    baseline_path, candidate_path = args.compare
    baseline, candidate = _load(baseline_path), _load(candidate_path)
    for field in ("steps", "seed", "rounds"):
        if baseline.get(field) != candidate.get(field):
            print(f"FAIL: recordings are not comparable — {field} differs "
                  f"({baseline.get(field)} vs {candidate.get(field)})",
                  file=sys.stderr)
            return 1
    failures = []
    base_work = dict(baseline["workloads"])
    cand_work = dict(candidate["workloads"])
    scale = 1.0
    base_cal, cand_cal = base_work.pop("calibration", None), cand_work.pop(
        "calibration", None
    )
    if base_cal and cand_cal:
        scale = cand_cal["min_s"] / base_cal["min_s"]
        print(f"machine-speed calibration: candidate runs at {scale:.2f}x "
              f"baseline wall time; ratios are normalized by it")
    print(f"{'workload':<22} {'baseline':>10} {'candidate':>10} {'delta':>8}")
    for name, base in sorted(base_work.items()):
        cand = cand_work.get(name)
        if cand is None:
            if name in OPTIONAL_WORKLOADS:
                print(f"{name:<22} {'(optional: missing from candidate)':>30}")
                continue
            failures.append(f"{name}: missing from candidate")
            continue
        ratio = cand["min_s"] / base["min_s"] / scale - 1.0
        flag = "  REGRESSION" if ratio > args.threshold else ""
        print(f"{name:<22} {base['min_s']:>9.3f}s {cand['min_s']:>9.3f}s "
              f"{ratio:>+7.1%}{flag}")
        if ratio > args.threshold:
            failures.append(f"{name}: {ratio:+.1%} slower "
                            f"(threshold {args.threshold:.0%})")
    for name in sorted(set(cand_work) - set(base_work)):
        print(f"{name:<22} {'(not in baseline: informational only)':>30} "
              f"{cand_work[name]['min_s']:>9.3f}s")
    base_speed = baseline["derived"]["vec8_speedup"]
    cand_speed = candidate["derived"]["vec8_speedup"]
    print(f"{'vec8_speedup':<22} {base_speed:>9.2f}x {cand_speed:>9.2f}x")
    if cand_speed < args.min_speedup:
        failures.append(f"vec8_speedup fell to {cand_speed:.2f}x "
                        f"(floor {args.min_speedup:.1f}x)")
    # informational, not a gate: whether another host reproduces the
    # baseline host's fingerprints is unverified
    print("\ntable fingerprints against the baseline (informational):")
    for name, base in sorted(base_work.items()):
        cand = cand_work.get(name)
        if cand is not None:
            same = cand["fingerprint_sha"] == base["fingerprint_sha"]
            verdict = "same" if same else "DIFFERENT"
            print(f"{name:<22} {verdict:<9} baseline {base['fingerprint_sha']} "
                  f"candidate {cand['fingerprint_sha']}")
    if failures:
        print("\nbenchmark gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                        help="real env steps per trial (must match to compare)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="wall-time samples per workload (min is kept)")
    parser.add_argument("--output", type=str, default=None,
                        help="recording path (default benchmarks/BENCH_<sha>.json)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required table1 speedup at n_envs=8")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="max tolerated per-workload slowdown in compare mode")
    parser.add_argument("--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                        default=None, help="gate CANDIDATE against BASELINE")
    parser.add_argument("--append-history", type=str, default=None,
                        metavar="FILE",
                        help="after a successful record, append one compact "
                        "JSONL trajectory line (timestamp, sha, per-workload "
                        "min_s + fingerprint) to FILE")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    return record(args)


if __name__ == "__main__":
    sys.exit(main())

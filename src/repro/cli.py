"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``campaign``
    Run a decision-analysis campaign over the airdrop case study (the
    paper's Table I replay, or fresh Random Search / Latin hypercube /
    TPE samples) and print the decision report; optionally archive it as
    JSON.

``analyze``
    Load an archived report, re-rank it and print the table, fronts and
    the per-parameter effect/importance analysis.

``episode``
    Fly a single episode of the airdrop simulator with the built-in
    proportional steering controller (or random actions) and print the
    touchdown summary — a sanity probe for environment configurations.

``calibration``
    Print the planned computation time and energy of the paper's anchor
    rows at its 200,000-step budget, priced from each row's cost plan
    with no training, against the paper's published values.

``telemetry``
    Summarize a JSONL telemetry log written by ``campaign --telemetry``
    or convert it to Chrome trace-event JSON for Perfetto
    (https://ui.perfetto.dev) / ``chrome://tracing``.

``faults``
    Generate, validate or describe a deterministic fault plan
    (``campaign --fault-plan FILE`` injects it into every trial).

``worker``
    Serve trials for a remote coordinator: ``repro worker --connect
    HOST:PORT`` dials a ``campaign --executor remote --listen`` run,
    passes the code-version handshake, and executes trials it is
    dealt until the coordinator shuts the fleet down.

``serve``
    Run the campaign-as-a-service HTTP API: clients submit campaign
    specs as JSON (``POST /campaigns``), poll status, stream committed
    trials as chunked JSONL, fetch Pareto fronts and Perfetto traces,
    and watch a live dashboard at ``/``. SIGTERM drains gracefully —
    running campaigns checkpoint to their journals and resume on the
    next ``repro serve`` over the same ``--state-dir``.

``lint``
    Run the determinism & reproducibility static-analysis pass
    (:mod:`repro.analysis`) over a source tree: AST rules for RNG /
    wall-clock / hash-ordering hazards plus the cross-file contract
    checks. Exits non-zero on any non-suppressed finding.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

import repro.airdrop  # noqa: F401  (registers Airdrop-v0)
from repro.airdrop import AirdropEnv
from repro.core import (
    Configuration,
    dump_report,
    load_table,
    parameter_effects,
    parameter_importance,
    rank_loaded,
    render_table,
)
from repro.exec import EXECUTORS, CampaignJournal, JournalMismatch, RetryPolicy
from repro.exec.executors import LAZY_EXECUTORS
from repro.faults import FaultPlan
from repro.obs import (
    JsonlSink,
    Telemetry,
    export_chrome,
    load_records,
    summarize,
    validate_chrome_trace,
)
from repro.paper import (
    EXPLORERS,
    PAPER_ANCHORS,
    TABLE1_CONFIGS,
    AirdropCaseStudy,
    Scale,
    compare_all,
    make_explorer,
    paper_rankers,
    table1_campaign,
)

__all__ = ["main"]


def _add_campaign_parser(subparsers) -> None:
    p = subparsers.add_parser("campaign", help="run a decision-analysis campaign")
    p.add_argument("--steps", type=int, default=20_000, help="real steps per trial")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--explorer",
        choices=EXPLORERS,
        default="table1",
    )
    p.add_argument("--trials", type=int, default=18, help="budget for non-table1 explorers")
    p.add_argument("--output", type=str, default=None, help="archive the report as JSON")
    p.add_argument("--no-plots", action="store_true")
    p.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="FILE",
        help="write a JSONL telemetry event log (off by default)",
    )
    p.add_argument(
        "--seed-strategy",
        choices=["fixed", "increment"],
        default="fixed",
        help="per-trial seeding: same base seed, or base_seed + trial_id",
    )
    p.add_argument(
        "--executor",
        choices=sorted(set(EXECUTORS) | set(LAZY_EXECUTORS)),
        default="serial",
        help="where trials run (results are identical across executors "
        "for the non-adaptive explorers)",
    )
    p.add_argument(
        "--max-workers",
        type=int,
        default=4,
        metavar="N",
        help="parallel trial slots for --executor thread/process/remote",
    )
    p.add_argument(
        "--listen",
        type=str,
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address for --executor remote (port 0 picks a free "
        "port; the chosen address is printed for 'repro worker --connect')",
    )
    p.add_argument(
        "--min-workers",
        type=int,
        default=1,
        metavar="N",
        help="with --executor remote, wait for this many workers to "
        "connect before running trials",
    )
    p.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="with --executor remote, declare a silent worker dead after "
        "this long and requeue its trials",
    )
    p.add_argument(
        "--on-fleet-loss",
        choices=("wait", "local", "fail"),
        default="wait",
        help="with --executor remote, what to do when live workers drop "
        "below --min-workers mid-campaign: wait for rejoins (default), "
        "run pending trials locally, or fail the campaign",
    )
    p.add_argument(
        "--rejoin-grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --executor remote, hold a lost worker's in-flight "
        "trials this long for a session rejoin before requeueing them "
        "(default: the heartbeat timeout)",
    )
    p.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial deadline (thread/process/remote executors; remote "
        "workers enforce it and report overruns as retryable timeouts)",
    )
    _add_secret_argument(p)
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts for trials that fail/timeout/crash",
    )
    p.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="FILE",
        help="checkpoint every finished trial to a JSONL journal",
    )
    p.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="FILE",
        help="resume an interrupted campaign from its journal "
        "(recorded trials are replayed, not re-evaluated)",
    )
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        metavar="FILE",
        help="inject a deterministic fault plan (JSON, see 'repro faults') "
        "into every trial's virtual run and rank on resilience",
    )
    p.add_argument(
        "--n-envs",
        type=int,
        default=1,
        metavar="N",
        help="episodes each rollout worker steps per env call (1, the "
        "default, steps one scalar env per worker)",
    )
    p.add_argument(
        "--cache",
        type=str,
        default=".repro-cache",
        metavar="DIR",
        help="content-addressed trial cache directory; identical trials "
        "are committed from cache instead of re-trained",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache entirely (neither read nor write)",
    )


def _add_worker_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "worker", help="serve trials for a remote campaign coordinator"
    )
    p.add_argument(
        "--connect",
        type=str,
        required=True,
        metavar="HOST:PORT",
        help="coordinator address printed by 'repro campaign --executor remote'",
    )
    p.add_argument(
        "--slots",
        type=int,
        default=1,
        metavar="N",
        help="trials this worker runs concurrently",
    )
    p.add_argument(
        "--name",
        type=str,
        default=None,
        help="worker identity for telemetry lanes (default: <host>-<pid>)",
    )
    p.add_argument(
        "--cache",
        type=str,
        default=".repro-cache",
        metavar="DIR",
        help="shared content-addressed trial cache; warm trials are "
        "answered locally without re-running env steps",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the trial cache entirely (neither read nor write)",
    )
    p.add_argument(
        "--connect-retries",
        type=int,
        default=0,
        metavar="N",
        help="extra dial attempts (with capped exponential backoff) when "
        "the coordinator is not up yet — lets workers start first",
    )
    p.add_argument(
        "--connect-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base delay between dial attempts; doubles per retry up to "
        "a cap",
    )
    _add_secret_argument(p)


def _add_serve_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "serve", help="run the campaign-as-a-service HTTP API + dashboard"
    )
    p.add_argument(
        "--listen",
        type=str,
        default="127.0.0.1:8321",
        metavar="HOST:PORT",
        help="bind address (port 0 picks a free port; the bound address "
        "is printed). Leaving 127.0.0.1 without --token warns: anyone "
        "who can reach the port can schedule work and read results",
    )
    p.add_argument(
        "--token",
        action="append",
        default=None,
        metavar="TOKEN",
        help="bearer token identifying one tenant; repeat for several "
        "tenants ($REPRO_SERVE_TOKEN adds one more). No tokens = open "
        "mode, every client shares the 'public' tenant",
    )
    p.add_argument(
        "--max-concurrent",
        type=int,
        default=2,
        metavar="N",
        help="campaigns running at once across all tenants (others queue, "
        "served round-robin per tenant)",
    )
    p.add_argument(
        "--state-dir",
        type=str,
        default=".repro-serve",
        metavar="DIR",
        help="durable job state: specs, journals, telemetry, results; "
        "restarting on the same directory resumes interrupted campaigns",
    )
    p.add_argument(
        "--cache",
        type=str,
        default=None,
        metavar="DIR",
        help="content-addressed trial cache shared across all tenants "
        "(default: <state-dir>/cache)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, how long running campaigns get to commit "
        "the current trial and checkpoint before the process exits",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="log every HTTP request to stderr",
    )


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve import CampaignServer, CampaignService, TokenAuth

    try:
        host, port = _parse_hostport(args.listen)
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    tokens = list(args.token or [])
    env_token = os.environ.get("REPRO_SERVE_TOKEN")
    if env_token:
        tokens.append(env_token)
    service = CampaignService(
        args.state_dir,
        auth=TokenAuth(tokens),
        max_concurrent=args.max_concurrent,
        cache_dir=args.cache,
    )
    server = CampaignServer(service, host, port, verbose=args.verbose)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    resumed = server.start()
    bound_host, bound_port = server.address
    mode = f"{len(tokens)} tenant token(s)" if tokens else "open mode (no tokens)"
    print(
        f"repro serve listening on http://{bound_host}:{bound_port} — "
        f"{mode}, {args.max_concurrent} concurrent slot(s), "
        f"state in {args.state_dir}",
        flush=True,
    )
    if resumed:
        print(f"re-enqueued {resumed} unfinished campaign(s) from {args.state_dir}",
              flush=True)
    while not stop.wait(0.5):
        pass
    print("draining: finishing or checkpointing running campaigns…", flush=True)
    server.drain(grace_s=args.drain_grace)
    print("drained; interrupted campaigns resume on next start", flush=True)
    return 0


def _add_secret_argument(p) -> None:
    p.add_argument(
        "--secret",
        type=str,
        default=os.environ.get("REPRO_NET_SECRET") or None,
        metavar="TOKEN",
        help="shared secret authenticating every coordinator/worker frame "
        "(default: $REPRO_NET_SECRET); required in practice whenever "
        "--listen leaves 127.0.0.1 — without it, anyone who can reach "
        "the port can execute code via pickled payloads",
    )


def _add_analyze_parser(subparsers) -> None:
    p = subparsers.add_parser("analyze", help="inspect an archived report")
    p.add_argument("report", type=str, help="JSON file written by 'campaign --output'")
    p.add_argument("--metric", type=str, default="reward")


def _add_episode_parser(subparsers) -> None:
    p = subparsers.add_parser("episode", help="fly one simulator episode")
    p.add_argument("--rk-order", type=int, default=5, choices=[3, 5, 8])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=["controller", "random"], default="controller")
    p.add_argument("--wind", action="store_true")
    p.add_argument("--gusts", action="store_true")
    p.add_argument("--altitude", type=float, default=None)


def _add_calibration_parser(subparsers) -> None:
    subparsers.add_parser("calibration", help="print the planned cost of the paper's anchor rows")


def _add_faults_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "faults", help="generate, validate or describe a fault plan"
    )
    actions = p.add_subparsers(dest="action", required=True)

    gen = actions.add_parser("generate", help="sample a deterministic fault plan")
    gen.add_argument("output", type=str, help="where to write the plan JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nodes", type=int, default=2, help="cluster size the plan targets")
    gen.add_argument(
        "--horizon",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="virtual-time window the fault events are drawn from",
    )
    gen.add_argument(
        "--intensity",
        type=float,
        default=0.5,
        metavar="X",
        help="how many events to draw: max(1, round(X)) node crashes, "
        "stragglers and link degradations each, plus task failures at rate "
        "min(0.2, 0.02*X) from 2.0 on; every X below 1.5 (the default 0.5 "
        "too) gives the same plan, and no event's timing or severity "
        "depends on X",
    )
    gen.add_argument("--name", type=str, default=None, help="plan name (default: derived)")

    val = actions.add_parser("validate", help="check a plan file for consistency")
    val.add_argument("plan", type=str, help="plan JSON file")
    val.add_argument("--nodes", type=int, default=2, help="cluster size to validate against")

    desc = actions.add_parser("describe", help="print a human-readable plan summary")
    desc.add_argument("plan", type=str, help="plan JSON file")


def _add_lint_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "lint", help="check a source tree against the reproducibility contracts"
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        help=(
            "findings as file:line text, a stable-ordered JSON report, "
            "or SARIF 2.1.0 for code scanning"
        ),
    )
    p.add_argument(
        "--rules",
        type=str,
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all, e.g. RPR001,RPR005)",
    )
    p.add_argument(
        "--no-contracts",
        action="store_true",
        help="skip the cross-file contract rules (RPR102–RPR106)",
    )
    p.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list suppressed findings with their reasons",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (id, what it catches, why) and exit",
    )
    p.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (for CI artifacts)",
    )
    p.add_argument(
        "--sarif",
        type=str,
        default=None,
        metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (for code scanning)",
    )
    p.add_argument(
        "--baseline",
        type=str,
        default=None,
        metavar="FILE",
        help="baseline JSON for the findings ratchet (see --fail-on-new)",
    )
    p.add_argument(
        "--fail-on-new",
        action="store_true",
        help=(
            "exit non-zero only for active findings not in --baseline; "
            "known findings burn down without failing the gate"
        ),
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current active findings to --baseline and exit 0",
    )


def _add_telemetry_parser(subparsers) -> None:
    p = subparsers.add_parser("telemetry", help="summarize or convert a telemetry log")
    p.add_argument("log", type=str, help="JSONL file written by 'campaign --telemetry'")
    p.add_argument(
        "--export-chrome",
        type=str,
        default=None,
        metavar="FILE",
        help="write Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )


def _parse_hostport(text: str) -> tuple[str, int]:
    """``HOST:PORT`` -> (host, port); raises ValueError on junk."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port in {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in {text!r}")
    return host, port


def _cmd_worker(args) -> int:
    from repro.net import WorkerAgent

    try:
        host, port = _parse_hostport(args.connect)
    except ValueError as exc:
        print(f"repro worker: {exc}", file=sys.stderr)
        return 2
    agent = WorkerAgent(
        host,
        port,
        name=args.name,
        slots=args.slots,
        cache=None if args.no_cache else args.cache,
        secret=args.secret,
        connect_retries=args.connect_retries,
        connect_backoff=args.connect_backoff,
    )
    return agent.run()


def _cmd_campaign(args) -> int:
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
            fault_plan.validate()
        except FileNotFoundError:
            print(f"repro campaign: no such fault plan: {args.fault_plan}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"repro campaign: bad fault plan {args.fault_plan}: {exc}", file=sys.stderr)
            return 1
        print(f"injecting fault plan {fault_plan.name or args.fault_plan} "
              f"(hash {fault_plan.plan_hash()}, {fault_plan.n_events} events)")
    telemetry = Telemetry(JsonlSink(args.telemetry)) if args.telemetry else None
    journal = None
    if args.resume:
        try:
            journal = CampaignJournal.resume(args.resume)
        except FileNotFoundError as exc:
            print(f"repro campaign: {exc}", file=sys.stderr)
            return 1
        print(f"resuming from {args.resume}: {journal.n_recorded} trials recorded")
    elif args.journal:
        journal = CampaignJournal(args.journal)
    executor: object = args.executor
    remote = None
    fleet_lost: tuple[type[BaseException], ...] = ()
    if args.executor == "remote":
        from repro.net import FleetLostError, FleetPolicy, RemoteExecutor

        fleet_lost = (FleetLostError,)
        try:
            host, port = _parse_hostport(args.listen)
        except ValueError as exc:
            print(f"repro campaign: {exc}", file=sys.stderr)
            return 2
        remote = RemoteExecutor(
            max_workers=args.max_workers,
            host=host,
            port=port,
            heartbeat_timeout=args.heartbeat_timeout,
            secret=args.secret,
            telemetry=telemetry,
            policy=FleetPolicy(
                min_workers=max(args.min_workers, 1),
                on_fleet_loss=args.on_fleet_loss,
                rejoin_grace_s=args.rejoin_grace,
            ),
        )
        bound_host, bound_port = remote.address
        print(
            f"coordinator listening on {bound_host}:{bound_port} — start "
            f"workers with 'repro worker --connect {bound_host}:{bound_port}'",
            flush=True,
        )
        if args.min_workers > 0:
            try:
                n = remote.wait_for_workers(args.min_workers, timeout=600.0)
            except TimeoutError as exc:
                print(f"repro campaign: {exc}", file=sys.stderr)
                remote.shutdown()
                return 1
            print(f"{n} worker(s) connected", flush=True)
        executor = remote
    campaign = table1_campaign(
        seed=args.seed,
        scale=Scale(real_steps=args.steps),
        explorer=make_explorer(args.explorer, args.trials, args.seed),
        seed_strategy=args.seed_strategy,
        telemetry=telemetry,
        executor=executor,
        max_workers=args.max_workers,
        retry=RetryPolicy(max_retries=args.retries) if args.retries else None,
        trial_timeout=args.trial_timeout,
        journal=journal,
        fault_plan=fault_plan,
        n_envs=args.n_envs,
        cache=None if args.no_cache else args.cache,
    )

    def progress(trial, n):
        print(f"  [{n:2d}] {trial.config.describe()} -> {trial.status}", flush=True)

    try:
        report = campaign.run(progress=progress)
    except JournalMismatch as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 1
    except fleet_lost as exc:
        print(
            f"repro campaign: fleet lost: {exc}\n"
            "  (rerun with --on-fleet-loss wait/local, raise --min-workers "
            "tolerance, or restart the lost workers)",
            file=sys.stderr,
        )
        return 1
    finally:
        if remote is not None:
            remote.shutdown()
        if telemetry is not None:
            telemetry.close()
    if report.meta.get("topology_warning"):
        print(f"WARNING: {report.meta['topology_warning']}", file=sys.stderr)
    if args.resume:
        print(f"\nreplayed {report.meta.get('n_replayed', 0)} journaled trials "
              f"without re-evaluation")
    if report.meta.get("n_cached"):
        print(f"\ncommitted {report.meta['n_cached']} trial(s) straight from "
              f"the content-addressed cache")
    print()
    print(report.render(plots=not args.no_plots))
    if args.explorer == "table1":
        print()
        for comparison in compare_all(report):
            print(comparison.describe())
    if args.output:
        dump_report(report, args.output)
        print(f"\nreport archived to {args.output}")
    if args.telemetry:
        print(f"\ntelemetry log written to {args.telemetry} "
              f"(inspect with 'repro telemetry {args.telemetry}')")
    return 0


def _cmd_faults(args) -> int:
    if args.action == "generate":
        try:
            plan = FaultPlan.sample(
                seed=args.seed,
                n_nodes=args.nodes,
                horizon_s=args.horizon,
                intensity=args.intensity,
                name=args.name or f"sampled-seed{args.seed}",
            )
        except ValueError as exc:
            print(f"repro faults: cannot generate a plan: {exc}", file=sys.stderr)
            return 1
        plan.save(args.output)
        print(f"wrote {args.output}")
        print(plan.describe())
        return 0
    try:
        plan = FaultPlan.load(args.plan)
    except FileNotFoundError:
        print(f"repro faults: no such plan file: {args.plan}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"repro faults: cannot parse {args.plan}: {exc}", file=sys.stderr)
        return 1
    if args.action == "validate":
        try:
            plan.validate(args.nodes)
        except ValueError as exc:
            print(f"repro faults: INVALID for {args.nodes} node(s): {exc}", file=sys.stderr)
            return 1
        print(f"{args.plan}: valid for {args.nodes} node(s) — "
              f"hash {plan.plan_hash()}, {plan.n_events} event(s)")
        return 0
    print(plan.describe())
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        LintEngine,
        default_model_rules,
        default_project_rules,
        default_rules,
        render_json,
        render_text,
        rule_table,
    )
    from repro.analysis.baseline import (
        diff_against_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.report import report_payload
    from repro.analysis.sarif import render_sarif

    if args.list_rules:
        print(f"{'rule':<8} {'catches':<42} protects")
        for rule_id, title, rationale in rule_table():
            print(f"{rule_id:<8} {title:<42} {rationale}")
        return 0
    rules = default_rules()
    model_rules = default_model_rules()
    project_rules = [] if args.no_contracts else default_project_rules()
    rule_filter = None
    if args.rules:
        wanted = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
        known = (
            {r.rule_id for r in rules}
            | {r.rule_id for r in model_rules}
            | {r.rule_id for r in default_project_rules()}
            | {"RPR000"}
        )
        unknown = sorted(wanted - known)
        if unknown:
            print(f"repro lint: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        rule_filter = wanted
    if (args.fail_on_new or args.write_baseline) and not args.baseline:
        print("repro lint: --fail-on-new/--write-baseline require --baseline FILE",
              file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"repro lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.fail_on_new and not args.write_baseline:
        if not os.path.exists(args.baseline):
            print(f"repro lint: no such baseline: {args.baseline} "
                  "(create one with --write-baseline)", file=sys.stderr)
            return 2
    engine = LintEngine(
        rules=rules,
        project_rules=project_rules,
        model_rules=model_rules,
        rule_filter=rule_filter,
    )
    report = engine.run(args.paths)
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report_payload(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(report) + "\n")
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, show_suppressed=args.show_suppressed))
    if args.write_baseline:
        write_baseline(report, args.baseline)
        print(f"wrote baseline with {len(report.active())} finding(s) "
              f"to {args.baseline}")
        return 0
    if args.fail_on_new:
        allowed = load_baseline(args.baseline)
        new = diff_against_baseline(report, allowed)
        n_known = len(report.active()) - len(new)
        print(f"baseline: {n_known} known finding(s), {len(new)} new")
        for finding in new:
            print(f"  NEW {finding.location()}: {finding.rule} {finding.message}")
        return 1 if new else 0
    return 0 if report.ok else 1


def _cmd_telemetry(args) -> int:
    import json

    try:
        records = load_records(args.log)
    except FileNotFoundError:
        print(f"repro telemetry: no such log file: {args.log}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"repro telemetry: {args.log} is not a JSONL telemetry log "
              f"({exc})", file=sys.stderr)
        return 1
    if args.export_chrome:
        payload = export_chrome(records, args.export_chrome)
        problems = validate_chrome_trace(payload)
        if problems:
            print(f"exported trace is NOT schema-clean ({len(problems)} problems):")
            for problem in problems[:10]:
                print(f"  {problem}")
            return 1
        print(
            f"wrote {len(payload['traceEvents'])} trace events to "
            f"{args.export_chrome} — open in https://ui.perfetto.dev"
        )
        return 0
    print(summarize(records))
    return 0


def _cmd_analyze(args) -> int:
    table = load_table(args.report)
    report = rank_loaded(table, paper_rankers() if "reward" in table.metrics else [])
    print(render_table(table, title=f"Archived campaign ({len(table)} trials)"))
    if report.rankings:
        print("\nfronts:", report.fronts())
    metric = args.metric
    if metric not in table.metrics:
        print(f"\nmetric {metric!r} not in this report; available: {table.metrics.names}")
        return 1
    print(f"\nparameter importance for {metric!r}:")
    for name, share in sorted(
        parameter_importance(table, metric).items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:>16}: {share:6.1%}")
    for name in sorted({k for t in table.completed() for k in t.config}):
        print()
        print(parameter_effects(table, name, metric).render())
    return 0


def _cmd_episode(args) -> int:
    kwargs = dict(rk_order=args.rk_order, wind=args.wind, gusts=args.gusts)
    env = AirdropEnv(**kwargs)
    options = {"altitude": args.altitude} if args.altitude else None
    obs, info = env.reset(seed=args.seed, options=options)
    rng = np.random.default_rng(args.seed)
    print(
        f"drop: altitude {info['drop_altitude']:.0f} m, "
        f"offset {info['drop_radius']:.0f} m, RK order {args.rk_order}"
    )
    steps = 0
    while True:
        if args.policy == "controller":
            action = np.array([np.clip(2.0 * obs[10], -1.0, 1.0)])
        else:
            action = rng.uniform(-1.0, 1.0, 1)
        obs, reward, term, trunc, info = env.step(action)
        steps += 1
        if term or trunc:
            break
    if "landing_score" in info:
        x, y = info["touchdown"]
        print(
            f"touchdown after {steps} steps at ({x:+.1f}, {y:+.1f}) m — "
            f"miss {info['miss_distance']:.1f} m, landing score {info['landing_score']:.3f}"
        )
    else:
        print(f"episode truncated after {steps} steps")
    return 0


def _cmd_calibration(args) -> int:
    study = AirdropCaseStudy(scale=Scale(real_steps=200_000))
    print("planned cost at 200,000 steps (no training) vs the paper's anchors:")
    print(f"{'sol':>4} {'configuration':<24} {'min':>7} {'paper':>6} {'error':>7}"
          f" {'kJ':>7} {'paper':>6} {'error':>7}")
    for solution, (minutes, kj) in sorted(PAPER_ANCHORS.items()):
        values = TABLE1_CONFIGS[solution]
        cost = study.cost(Configuration(values, trial_id=solution))
        label = "{framework}/{algorithm}/rk{rk_order}/{n_nodes}n x {cores_per_node}c".format(
            **values
        )
        row = f"{solution:>4} {label:<24}"
        for planned, paper in ((cost.computation_time_s / 60.0, minutes), (cost.energy_kj, kj)):
            error = "—" if paper is None else f"{(planned - paper) / paper:+.1%}"
            row += f" {planned:>7.1f} {'—' if paper is None else f'{paper:.0f}':>6} {error:>7}"
        print(row)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="decision analysis tools for distributed reinforcement learning",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_campaign_parser(subparsers)
    _add_worker_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_analyze_parser(subparsers)
    _add_episode_parser(subparsers)
    _add_calibration_parser(subparsers)
    _add_telemetry_parser(subparsers)
    _add_faults_parser(subparsers)
    _add_lint_parser(subparsers)
    args = parser.parse_args(argv)
    handler = {
        "campaign": _cmd_campaign,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "analyze": _cmd_analyze,
        "episode": _cmd_episode,
        "calibration": _cmd_calibration,
        "telemetry": _cmd_telemetry,
        "faults": _cmd_faults,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Campaign orchestration: the methodology end to end (Figure 1).

A :class:`Campaign` wires the five steps together:

1. *case study* — anything implementing :class:`CaseStudy`;
2. *learning configurations* — a :class:`ParameterSpace`;
3. *exploratory method* — an :class:`Explorer`;
4. *evaluation metrics* — a :class:`MetricSet`;
5. *ranking methods* — one or more :class:`RankingMethod`.

``run()`` drives the explorer, evaluates every proposal (with optional
pruning on the learning-curve checkpoints), feeds objectives back to
adaptive explorers, and returns a :class:`DecisionReport` bundling the
results table, all rankings and their textual/ASCII renderings — the
"decision analysis tool" handed to the user.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

from ..exec import (
    CampaignJournal,
    Executor,
    RetryPolicy,
    SerialExecutor,
    TrialCache,
    TrialOutcome,
    TrialTask,
    code_version_tag,
    make_executor,
)
from ..obs import (
    EVT_CAMPAIGN_FINISHED,
    EVT_CAMPAIGN_STARTED,
    EVT_EXPLORER_ASK,
    EVT_EXPLORER_TELL,
    EVT_TRIAL_CACHE_HIT,
    EVT_TRIAL_RETRIED,
    Telemetry,
)
from .configuration import Configuration
from .exploration import Explorer
from .metrics import MetricSet
from .parameters import ParameterSpace
from .pruning import NoPruner, Pruner
from .ranking import ParetoFrontRanking, Ranking, RankingMethod
from .report import render_ranking, render_scatter, render_table
from .results import ResultsTable, TrialResult, TrialStatus

__all__ = ["CaseStudy", "Campaign", "DecisionReport", "ProgressCallback", "SEED_STRATEGIES"]


@runtime_checkable
class CaseStudy(Protocol):
    """The problem under study (methodology step 1).

    ``evaluate`` runs one learning configuration and returns the raw
    measurement dict the metrics extract from. ``progress`` (when not
    None) must be called with ``(step, reward_checkpoint)`` during the
    run; a ``True`` return value requests early stopping (pruning).
    """

    def evaluate(
        self,
        config: Configuration,
        seed: int,
        progress: Callable[[int, float], bool] | None = None,
    ) -> Mapping[str, float]:
        ...


#: called after every finished trial with (trial_result, n_done)
ProgressCallback = Callable[[TrialResult, int], None]


@dataclass
class DecisionReport:
    """The decision analysis tool: table + rankings + renderings."""

    table: ResultsTable
    rankings: dict[str, Ranking]
    elapsed_s: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    def ranking(self, name: str) -> Ranking:
        try:
            return self.rankings[name]
        except KeyError:
            raise KeyError(
                f"no ranking named {name!r}; available: {sorted(self.rankings)}"
            ) from None

    def fronts(self) -> dict[str, list[int]]:
        """Per-ranking first-front trial ids (the paper's highlights)."""
        return {name: r.front_ids() for name, r in self.rankings.items()}

    def render(self, plots: bool = True, max_rows: int | None = None) -> str:
        """Full text report: table, rankings, and ASCII Pareto plots."""
        sections = [render_table(self.table, title="Campaign results")]
        for name, ranking in self.rankings.items():
            sections.append(render_ranking(ranking, max_rows=max_rows))
            if plots and len(ranking.metric_names) == 2:
                mx = self.table.metrics[ranking.metric_names[0]]
                my = self.table.metrics[ranking.metric_names[1]]
                sections.append(
                    render_scatter(
                        self.table.completed(),
                        mx,
                        my,
                        front_ids=ranking.front_ids(),
                        title=f"{name}: {my.name} vs {mx.name}",
                    )
                )
        return "\n\n".join(sections)


#: supported per-trial seed derivations
SEED_STRATEGIES = ("fixed", "increment")


@dataclass
class _Replay:
    """A journaled trial of this campaign standing in for an evaluation
    (``--resume``)."""

    trial: TrialResult
    checkpoints: list[tuple[int, float]]


class Campaign:
    """Runs the methodology over a case study.

    ``seed_strategy`` controls per-trial seeding: ``"fixed"`` (default,
    the paper's setup) evaluates every configuration with ``base_seed``;
    ``"increment"`` derives ``base_seed + trial_id`` so repeated
    configurations see different randomness. The resolved seed is stored
    on each :class:`TrialResult` and in the telemetry events.

    ``telemetry`` (optional) is a :class:`repro.obs.Telemetry`; when
    given, the campaign emits structured events for every trial
    lifecycle transition, wraps each evaluation in a ``trial`` span
    (framework back-ends add ``rollout``/``update``/``weight_sync``
    children), and collects per-trial/aggregate meters. ``None`` keeps
    the zero-overhead no-op path.

    ``executor`` selects where trials run: ``None`` (default) keeps the
    historical inline serial path; a name from
    :data:`repro.exec.EXECUTORS` (``"serial"``/``"thread"``/``"process"``,
    sized by ``max_workers``) or a ready :class:`repro.exec.Executor`
    instance enables parallel evaluation. Results are committed to the
    table, explorer and pruner in **submission order** regardless of
    completion order, and per-trial seeds derive from the trial id, so
    ask-order-deterministic explorers produce identical tables on every
    backend. (Adaptive explorers and the median pruner see staler
    feedback under parallelism — same trade every parallel HPO system
    makes; see :mod:`repro.core.tpe` for the constant-liar mitigation.)

    ``retry`` (a :class:`repro.exec.RetryPolicy` or an int of max
    retries) re-runs trials that fail/timeout/crash, with exponential
    backoff; ``trial_timeout`` is a per-trial deadline in seconds
    (enforced by the thread/process executors). ``journal`` is a
    :class:`repro.exec.CampaignJournal`: every committed trial is
    durably appended, and a journal opened with ``resume=True`` replays
    recorded trials instead of re-evaluating them, once its header
    matches :meth:`identity` in every field.

    ``cache`` (a :class:`repro.exec.TrialCache`, or a directory path for
    a persistent one) memoizes completed trials by content — config
    values, seed, space/fault-plan hashes, metric names, the case
    study's ``cache_key()`` and a source-code version tag. A matching
    trial is not re-trained: its stored outcome commits at once
    (emitting a ``trial_cache_hit`` event) through the same path as an
    evaluated trial's; caching is skipped when the case study does not
    expose ``cache_key()``.
    """

    def __init__(
        self,
        case_study: CaseStudy,
        space: ParameterSpace,
        explorer: Explorer,
        metrics: MetricSet,
        rankers: list[RankingMethod] | None = None,
        pruner: Pruner | None = None,
        base_seed: int = 0,
        raise_on_error: bool = False,
        seed_strategy: str = "fixed",
        telemetry: Telemetry | None = None,
        executor: Executor | str | None = None,
        max_workers: int | None = None,
        retry: RetryPolicy | int | None = None,
        trial_timeout: float | None = None,
        journal: CampaignJournal | None = None,
        cache: TrialCache | str | None = None,
    ) -> None:
        if not isinstance(case_study, CaseStudy):
            raise TypeError("case_study must implement evaluate(config, seed, progress)")
        if seed_strategy not in SEED_STRATEGIES:
            raise ValueError(
                f"seed_strategy must be one of {SEED_STRATEGIES}, got {seed_strategy!r}"
            )
        self.case_study = case_study
        self.space = space
        self.explorer = explorer
        self.metrics = metrics
        self.rankers = rankers if rankers is not None else _default_rankers(metrics)
        self.pruner = pruner or NoPruner()
        self.base_seed = int(base_seed)
        self.raise_on_error = bool(raise_on_error)
        self.seed_strategy = seed_strategy
        self.telemetry = Telemetry.or_null(telemetry)
        self.executor = executor
        self.max_workers = max_workers
        self.retry = RetryPolicy.of(retry)
        self.trial_timeout = trial_timeout
        self.journal = journal
        if isinstance(cache, (str, os.PathLike)):
            cache = TrialCache(cache)
        self.cache = cache
        self._pass_telemetry = _accepts_telemetry(case_study)

    def run(
        self,
        progress: ProgressCallback | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> DecisionReport:
        """Execute every trial the explorer proposes and rank the outcome.

        ``stop`` (optional) is a cancellation predicate polled between
        scheduling rounds — when it returns True the campaign stops
        asking, drops in-flight work, and returns a partial report with
        ``meta["interrupted"] = True``. Every *committed* trial is
        already in the journal (when one is configured), so re-running
        with a resumed journal replays the committed prefix and
        re-evaluates only what was dropped. This is the graceful-drain
        hook :mod:`repro.serve` uses on SIGTERM.
        """
        table = ResultsTable(self.metrics, self.space)
        telem = self.telemetry
        executor = self._make_executor()
        start = time.perf_counter()
        telem.event(
            EVT_CAMPAIGN_STARTED,
            explorer=type(self.explorer).__name__,
            seed_strategy=self.seed_strategy,
            base_seed=self.base_seed,
            metrics=list(self.metrics.names),
            executor=executor.name,
            max_workers=executor.max_workers,
        )
        identity = cache_identity = None
        if self.journal is not None or self.cache is not None:
            identity, trial_identity = self._identities()
            if self.cache is not None and trial_identity["study"] is not None:
                # without the study's settings two studies with different
                # physics could collide on identical configurations
                cache_identity = trial_identity
        if self.journal is not None:
            self.journal.open(
                identity,
                topology={
                    "executor": executor.name,
                    "max_workers": executor.max_workers,
                },
            )
        n_retried = 0
        n_cached = 0
        next_seq = 0  # seq of the next ask
        commit_seq = 0  # seq of the next commit (strictly ordered)
        exhausted = False
        tasks: dict[int, TrialTask] = {}
        ready: dict[int, TrialOutcome | _Replay] = {}
        retry_due: dict[int, float] = {}  # seq -> monotonic resubmit time
        hit_seqs: set[int] = set()  # seqs answered by the trial cache
        interrupted = False
        try:
            with executor:
                while True:
                    if stop is not None and stop():
                        interrupted = True
                        break
                    # fill the window: never run ahead of the committed
                    # prefix by more than max_workers proposals
                    while not exhausted and next_seq - commit_seq < executor.max_workers:
                        config = self.explorer.ask()
                        if config is None:
                            exhausted = True
                            break
                        telem.event(
                            EVT_EXPLORER_ASK,
                            trial_id=config.trial_id,
                            config=config.as_dict(),
                        )
                        self.space.validate(config.as_dict())
                        hit = (
                            self.journal.lookup(config)
                            if self.journal is not None
                            else None
                        )
                        if hit is not None:
                            ready[next_seq] = _Replay(*hit)
                            next_seq += 1
                            continue
                        seed = self.trial_seed(config.trial_id)
                        key = cached = None
                        if cache_identity is not None:
                            key = self.cache.key(config, seed, cache_identity)
                            cached = self.cache.lookup(key, config, seed)
                        task = TrialTask(
                            seq=next_seq,
                            config=config,
                            seed=seed,
                            case_study=self.case_study,
                            pruner=self.pruner,
                            pass_telemetry=self._pass_telemetry,
                            telemetry_on=telem.enabled,
                            timeout_s=self.trial_timeout,
                            cache_key=key if cached is None else None,
                        )
                        tasks[next_seq] = task
                        if cached is None:
                            self.explorer.mark_pending(config)
                            executor.submit(task)
                        else:
                            measurements, checkpoints, duration_s = cached
                            n_cached += 1
                            telem.event(
                                EVT_TRIAL_CACHE_HIT,
                                trial_id=config.trial_id,
                                key=key,
                                seed=seed,
                            )
                            if telem.enabled:
                                telem.meters.counter("cache/hits").inc()
                            hit_seqs.add(next_seq)
                            ready[next_seq] = TrialOutcome(
                                seq=next_seq,
                                trial_id=config.trial_id,
                                attempt=0,
                                status="completed",
                                measurements=measurements,
                                duration_s=duration_s,
                                checkpoints=checkpoints,
                            )
                        next_seq += 1

                    # resubmit retries whose backoff elapsed
                    now = time.monotonic()
                    for seq in [s for s, due in retry_due.items() if due <= now]:
                        del retry_due[seq]
                        executor.submit(tasks[seq])

                    if executor.n_inflight:
                        outcomes = executor.poll(0.1)
                    else:
                        if retry_due:
                            earliest = min(retry_due.values()) - time.monotonic()
                            if earliest > 0:
                                time.sleep(min(0.1, earliest))
                        outcomes = []

                    for outcome in outcomes:
                        self._fold_telemetry(outcome, executor)
                        task = tasks[outcome.seq]
                        if outcome.retryable and self.retry.should_retry(outcome.attempt):
                            n_retried += 1
                            telem.event(
                                EVT_TRIAL_RETRIED,
                                trial_id=outcome.trial_id,
                                attempt=outcome.attempt + 1,
                                status=outcome.status,
                                error=outcome.error,
                            )
                            tasks[outcome.seq] = task.retry()
                            retry_due[outcome.seq] = (
                                time.monotonic() + self.retry.delay(outcome.attempt)
                            )
                        else:
                            ready[outcome.seq] = outcome

                    # commit the contiguous finished prefix, in order
                    while commit_seq in ready:
                        entry = ready.pop(commit_seq)
                        task = tasks.pop(commit_seq, None)
                        trial = self._commit(
                            entry, task, table, executor,
                            from_cache=commit_seq in hit_seqs,
                        )
                        hit_seqs.discard(commit_seq)
                        commit_seq += 1
                        if progress is not None:
                            progress(trial, len(table))

                    if exhausted and commit_seq == next_seq:
                        break
        finally:
            if self.journal is not None:
                self.journal.close()
        statuses = [t.status for t in table]
        meta = {
            "n_trials": len(table),
            "n_completed": len(table.completed()),
            "n_failed": statuses.count(TrialStatus.FAILED),
            "n_pruned": statuses.count(TrialStatus.PRUNED),
            "explorer": type(self.explorer).__name__,
            "seed_strategy": self.seed_strategy,
            "executor": executor.name,
            "max_workers": executor.max_workers,
        }
        if n_retried:
            meta["n_retried"] = n_retried
        if interrupted:
            meta["interrupted"] = True
        if self.journal is not None:
            meta["n_replayed"] = self.journal.n_replayed
            if self.journal.topology_warning is not None:
                meta["topology_warning"] = self.journal.topology_warning
        if self.cache is not None:
            meta["n_cached"] = n_cached
        if telem.enabled:
            meta["telemetry"] = telem.meters.snapshot()
        telem.event(EVT_CAMPAIGN_FINISHED, elapsed_s=time.perf_counter() - start, **{
            k: v for k, v in meta.items() if k != "telemetry"
        })
        rankings = {r.name: r.rank(table) for r in self.rankers} if table.completed() else {}
        return DecisionReport(
            table=table,
            rankings=rankings,
            elapsed_s=time.perf_counter() - start,
            meta=meta,
        )

    # ------------------------------------------------------------ internals
    def trial_seed(self, trial_id: int | None) -> int:
        """The seed a trial runs with under the configured strategy."""
        if self.seed_strategy == "increment" and trial_id is not None:
            return self.base_seed + int(trial_id)
        return self.base_seed

    def identity(self) -> dict[str, Any]:
        """Everything a run of this campaign depends on.

        Three parts: the trial identity every trial's cache key folds in
        (:meth:`_trial_identity`); what decides which trials run
        (``explorer``, ``base_seed``, ``seed_strategy``); and ``code``, the
        :func:`~repro.exec.code_version_tag` of the source a trial's
        measurements depend on. A journal writes all of it into its header
        and refuses a resume that differs in any field.
        """
        return self._identities()[0]

    def _identities(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """:meth:`identity` and, as a dict of its own, its trial part."""
        trial = self._trial_identity()
        identity = {
            **trial,
            "explorer": type(self.explorer).__name__,
            "base_seed": self.base_seed,
            "seed_strategy": self.seed_strategy,
            "code": code_version_tag(),
        }
        return identity, trial

    def _trial_identity(self) -> dict[str, Any]:
        """The campaign-level ingredients of every trial's cache key.

        ``study`` is the case study's ``cache_key()``: its settings not
        captured by the configuration (steps, env kwargs, ``n_envs``,
        cluster), or None when the study declares none.
        """
        study_key = getattr(self.case_study, "cache_key", None)
        return {
            "space": self._space_hash(),
            "fault_plan": self._fault_plan_hash(),
            "metrics": list(self.metrics.names),
            "study": study_key() if callable(study_key) else None,
        }

    def _space_hash(self) -> str:
        """Short digest of the parameter space's structure (name, type and
        grid per parameter) — resuming against a different space would
        replay configurations that no longer validate."""
        shape = [
            {
                "name": p.name,
                "type": type(p).__name__,
                "grid": [repr(v) for v in p.grid()],
            }
            for p in self.space.parameters
        ]
        digest = hashlib.sha1(
            json.dumps(shape, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return digest[:12]

    def _fault_plan_hash(self) -> str:
        """Digest of the case study's fault plan (empty string = no plan)."""
        plan = getattr(self.case_study, "fault_plan", None)
        if plan is None or getattr(plan, "is_empty", True):
            return ""
        return plan.plan_hash()

    def _make_executor(self) -> Executor:
        if self.executor is None:
            return SerialExecutor()
        if isinstance(self.executor, str):
            return make_executor(self.executor, self.max_workers)
        return self.executor

    def _fold_telemetry(self, outcome: TrialOutcome, executor: Executor) -> None:
        """Fold one attempt's records and meters into the campaign's.

        Called once per polled outcome, before the retry decision, so a
        retried attempt's records reach the sink under every executor.
        Span ids are re-based onto this tracer's, and an out-of-process
        attempt's clocks are shifted onto this process's.
        """
        telem = self.telemetry
        if not telem.enabled:
            return
        delta = 0.0
        if not executor.in_process:
            delta = outcome.clock_offset - (time.time() - time.perf_counter())
        telem.merge_records(outcome.records, worker=outcome.worker, clock_delta=delta)
        if outcome.meters is not None:
            telem.meters.merge(outcome.meters)

    def _commit(
        self,
        entry: "TrialOutcome | _Replay",
        task: TrialTask | None,
        table: ResultsTable,
        executor: Executor,
        from_cache: bool = False,
    ) -> TrialResult:
        """Fold one finished trial into table/explorer/pruner/journal/cache.

        A cache hit (``from_cache``) is an outcome like any evaluated
        trial's and a fresh commit of *this* campaign: the journal lists
        it, so a later ``--resume`` replays the identical table.
        """
        telem = self.telemetry
        if isinstance(entry, _Replay):
            trial = entry.trial
            table.add(trial)
            self.pruner.absorb(trial.trial_id, entry.checkpoints)
            if trial.ok:
                self.explorer.tell(trial.config, trial.objectives)
                telem.event(
                    EVT_EXPLORER_TELL,
                    trial_id=trial.trial_id,
                    objectives=trial.objectives,
                )
                self.pruner.finish(trial.trial_id)
            return trial
        outcome = entry
        config = task.config
        self.explorer.clear_pending(config)
        if outcome.checkpoints and (from_cache or not executor.in_process):
            # the live pruner never saw this curve: a hit did not run, a
            # child only had a pruner snapshot; replay it here
            self.pruner.absorb(outcome.trial_id, outcome.checkpoints)
        if not outcome.ok and self.raise_on_error:
            if outcome.exception is not None:
                raise outcome.exception
            raise RuntimeError(
                f"trial {outcome.trial_id} {outcome.status}: {outcome.error}"
            )
        trial = self._result_from_outcome(outcome, task)
        table.add(trial)
        if self.journal is not None:
            self.journal.record(trial, outcome.checkpoints)
        if task.cache_key is not None and self.cache is not None:
            self.cache.store(task.cache_key, outcome, config, task.seed)
        if trial.ok:
            self.explorer.tell(config, trial.objectives)
            telem.event(
                EVT_EXPLORER_TELL, trial_id=config.trial_id, objectives=trial.objectives
            )
            self.pruner.finish(config.trial_id)
        return trial

    def _result_from_outcome(self, outcome: TrialOutcome, task: TrialTask) -> TrialResult:
        telem = self.telemetry
        extras: dict[str, Any] = {}
        if outcome.ok:
            objectives = self.metrics.extract_all(outcome.measurements)
            status = TrialStatus.PRUNED if outcome.status == "pruned" else TrialStatus.COMPLETED
            measurements = {
                k: v for k, v in outcome.measurements.items() if isinstance(v, (int, float))
            }
            if telem.enabled and outcome.meters is not None:
                extras["telemetry"] = outcome.meters.snapshot()
        else:
            objectives = {}
            status = TrialStatus.FAILED
            measurements = {}
            extras.update(outcome.error_extras)
            extras["error"] = outcome.error
            if outcome.traceback is not None:
                extras["traceback"] = outcome.traceback
            if outcome.status != "failed":
                extras["failure_kind"] = outcome.status  # "timeout" / "crashed"
        if outcome.attempt:
            extras["attempts"] = outcome.attempt + 1
        return TrialResult(
            config=task.config,
            objectives=objectives,
            status=status,
            seed=task.seed,
            duration_s=outcome.duration_s,
            measurements=measurements,
            extras=extras,
        )


def _accepts_telemetry(case_study: CaseStudy) -> bool:
    """Whether ``evaluate`` takes a ``telemetry=`` keyword.

    The :class:`CaseStudy` protocol predates telemetry; studies opt in by
    growing the keyword (as :class:`~repro.paper.AirdropCaseStudy` does)
    and older two-argument studies keep working untouched.
    """
    try:
        params = inspect.signature(case_study.evaluate).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return "telemetry" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def _default_rankers(metrics: MetricSet) -> list[RankingMethod]:
    """All metric pairs as Pareto rankings (the paper's three figures)."""
    names = metrics.names
    rankers: list[RankingMethod] = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rankers.append(ParetoFrontRanking([names[i], names[j]]))
    return rankers

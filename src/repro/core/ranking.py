"""Ranking methods (methodology step 5, §III-B-e).

A ranking method "classifies the different solutions by building a
hierarchy between them". The paper uses Pareto fronts; sorted arrays are
named as the textual alternative. Implemented here:

* :class:`ParetoFrontRanking` — the paper's choice: non-dominated fronts
  over a metric pair (or any subset), with crowding-distance tie-breaks
  and a knee-point annotation;
* :class:`SortedTableRanking` — single-metric sorted array;
* :class:`WeightedSumRanking` — normalized scalarization;
* :class:`LexicographicRanking` — strict metric priority order.

Each produces a :class:`Ranking` — ordered trials plus annotations —
which the report module renders as text/ASCII plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .pareto import crowding_distance, knee_point, pareto_fronts
from .results import ResultsTable, TrialResult

__all__ = [
    "Ranking",
    "RankingMethod",
    "ParetoFrontRanking",
    "SortedTableRanking",
    "WeightedSumRanking",
    "LexicographicRanking",
]


@dataclass
class Ranking:
    """An ordered hierarchy of trials with per-trial annotations."""

    name: str
    #: metric names this ranking considered
    metric_names: list[str]
    #: trials from best to worst
    ordered: list[TrialResult]
    #: trial_id -> annotation dict (front index, score, flags...)
    annotations: dict[int, dict] = field(default_factory=dict)

    @property
    def best(self) -> TrialResult:
        if not self.ordered:
            raise ValueError("empty ranking")
        return self.ordered[0]

    def front(self) -> list[TrialResult]:
        """Trials annotated as first-front / rank-0 (falls back to best)."""
        members = [
            t for t in self.ordered
            if self.annotations.get(t.trial_id, {}).get("front") == 0
        ]
        return members or self.ordered[:1]

    def front_ids(self) -> list[int]:
        return sorted(t.trial_id for t in self.front() if t.trial_id is not None)

    def position(self, trial_id: int) -> int:
        for i, t in enumerate(self.ordered):
            if t.trial_id == trial_id:
                return i
        raise KeyError(f"trial {trial_id} not in ranking")


class RankingMethod:
    """Base class: turns a results table into a :class:`Ranking`."""

    name: str = "ranking"

    def rank(self, table: ResultsTable) -> Ranking:
        raise NotImplementedError

    def _require_completed(self, table: ResultsTable) -> list[TrialResult]:
        trials = table.completed()
        if not trials:
            raise ValueError("no completed trials to rank")
        return trials


class ParetoFrontRanking(RankingMethod):
    """Non-dominated sorting over a subset of the campaign metrics.

    ``metric_names`` picks the axes (the paper's three figures are the
    three pairs of {reward, computation_time, power_consumption}).
    """

    def __init__(self, metric_names: Sequence[str], name: str | None = None) -> None:
        if len(metric_names) < 2:
            raise ValueError("a Pareto ranking needs at least two metrics")
        self.metric_names = list(metric_names)
        self.name = name or ("pareto:" + "+".join(self.metric_names))

    def rank(self, table: ResultsTable) -> Ranking:
        trials = self._require_completed(table)
        metrics = [table.metrics[n] for n in self.metric_names]
        directions = [m.direction for m in metrics]
        points = np.array(
            [[t.objectives[m.name] for m in metrics] for t in trials], dtype=np.float64
        )
        fronts = pareto_fronts(points, directions)
        knee_global = knee_point(points, directions)

        annotations: dict[int, dict] = {}
        ordered: list[TrialResult] = []
        for front_index, front in enumerate(fronts):
            crowd = crowding_distance(points[front], directions)
            # inside a front: most spread-out (boundary) solutions first
            order = np.argsort(-crowd, kind="stable")
            for local in order:
                trial = trials[front[local]]
                ordered.append(trial)
                annotations[trial.trial_id] = {
                    "front": front_index,
                    "crowding": float(crowd[local]),
                    "knee": bool(front[local] == knee_global),
                }
        return Ranking(
            name=self.name,
            metric_names=self.metric_names,
            ordered=ordered,
            annotations=annotations,
        )


class SortedTableRanking(RankingMethod):
    """The paper's 'sorted arrays' alternative: order by one metric."""

    def __init__(self, metric_name: str, name: str | None = None) -> None:
        self.metric_name = metric_name
        self.name = name or f"sorted:{metric_name}"

    def rank(self, table: ResultsTable) -> Ranking:
        trials = self._require_completed(table)
        metric = table.metrics[self.metric_name]
        sign = -1.0 if metric.maximize else 1.0
        ordered = sorted(trials, key=lambda t: sign * t.objectives[metric.name])
        annotations = {
            t.trial_id: {"rank": i, "value": t.objectives[metric.name], "front": 0 if i == 0 else None}
            for i, t in enumerate(ordered)
        }
        return Ranking(
            name=self.name,
            metric_names=[metric.name],
            ordered=ordered,
            annotations=annotations,
        )


class WeightedSumRanking(RankingMethod):
    """Normalized weighted scalarization across all campaign metrics.

    Values are min-max normalized per metric (after direction alignment)
    so weights express relative priorities, not units.
    """

    def __init__(self, weights: dict[str, float], name: str | None = None) -> None:
        if not weights:
            raise ValueError("weights must not be empty")
        if any(w < 0 for w in weights.values()):
            raise ValueError("weights must be non-negative")
        if sum(weights.values()) <= 0:
            raise ValueError("at least one weight must be positive")
        self.weights = dict(weights)
        self.name = name or "weighted-sum"

    def rank(self, table: ResultsTable) -> Ranking:
        trials = self._require_completed(table)
        names = list(self.weights)
        metrics = [table.metrics[n] for n in names]
        raw = np.array(
            [[t.objectives[m.name] for m in metrics] for t in trials], dtype=np.float64
        )
        # align directions: smaller is better everywhere
        for j, m in enumerate(metrics):
            if m.maximize:
                raw[:, j] = -raw[:, j]
        lo, hi = raw.min(axis=0), raw.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        norm = (raw - lo) / span
        w = np.array([self.weights[n] for n in names])
        scores = norm @ (w / w.sum())
        order = np.argsort(scores, kind="stable")
        ordered = [trials[i] for i in order]
        annotations = {
            trials[i].trial_id: {"score": float(scores[i]), "front": 0 if i == order[0] else None}
            for i in range(len(trials))
        }
        return Ranking(self.name, names, ordered, annotations)


class LexicographicRanking(RankingMethod):
    """Strict priority order with optional per-metric tolerance bands.

    ``tolerances[name]`` treats values within that absolute distance of
    the incumbent best as ties, deferring to the next metric.
    """

    def __init__(
        self,
        metric_order: Sequence[str],
        tolerances: dict[str, float] | None = None,
        name: str | None = None,
    ) -> None:
        if not metric_order:
            raise ValueError("metric_order must not be empty")
        self.metric_order = list(metric_order)
        self.tolerances = dict(tolerances or {})
        self.name = name or ("lex:" + ">".join(self.metric_order))

    def rank(self, table: ResultsTable) -> Ranking:
        trials = self._require_completed(table)

        def sort_key(trial: TrialResult) -> tuple:
            key = []
            for metric_name in self.metric_order:
                metric = table.metrics[metric_name]
                value = trial.objectives[metric_name]
                aligned = -value if metric.maximize else value
                tol = self.tolerances.get(metric_name, 0.0)
                if tol > 0:
                    aligned = round(aligned / tol)
                key.append(aligned)
            return tuple(key)

        ordered = sorted(trials, key=sort_key)
        annotations = {
            t.trial_id: {"rank": i, "front": 0 if i == 0 else None}
            for i, t in enumerate(ordered)
        }
        return Ranking(self.name, self.metric_order, ordered, annotations)

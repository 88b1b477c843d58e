"""Trial results and the campaign results table (the shape of Table I)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .configuration import Configuration
from .metrics import MetricSet
from .parameters import ParameterSpace

__all__ = ["TrialStatus", "TrialResult", "ResultsTable"]


class TrialStatus:
    """Lifecycle states of a trial (only COMPLETED trials enter rankings)."""

    COMPLETED = "completed"
    PRUNED = "pruned"
    FAILED = "failed"


@dataclass
class TrialResult:
    """One evaluated learning configuration."""

    config: Configuration
    #: metric name -> value (already direction-agnostic raw values)
    objectives: dict[str, float]
    status: str = TrialStatus.COMPLETED
    seed: int = 0
    #: real wall-clock seconds the evaluation took (0.0 when unmeasured)
    duration_s: float = 0.0
    #: raw measurement dict the case study returned (superset of objectives)
    measurements: dict[str, float] = field(default_factory=dict)
    #: free-form extras: learning curve, diagnostics, error text...
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def trial_id(self) -> int | None:
        return self.config.trial_id

    @property
    def ok(self) -> bool:
        return self.status == TrialStatus.COMPLETED

    def describe(self, metrics: MetricSet | None = None) -> str:
        parts = [self.config.describe()]
        if metrics is not None:
            parts += [f"{m.name}={self.objectives.get(m.name, float('nan')):.4g}" for m in metrics]
        else:
            parts += [f"{k}={v:.4g}" for k, v in self.objectives.items()]
        return " | ".join(parts)


class ResultsTable:
    """Ordered collection of trial results with matrix/table exports."""

    def __init__(self, metrics: MetricSet, space: ParameterSpace | None = None) -> None:
        self.metrics = metrics
        self.space = space
        self._trials: list[TrialResult] = []

    # ------------------------------------------------------------ mutation
    def add(self, trial: TrialResult) -> None:
        self._trials.append(trial)

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._trials)

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self._trials)

    def __getitem__(self, index: int) -> TrialResult:
        return self._trials[index]

    @property
    def trials(self) -> list[TrialResult]:
        return list(self._trials)

    def completed(self) -> list[TrialResult]:
        return [t for t in self._trials if t.ok]

    def filter(self, predicate: Callable[[TrialResult], bool]) -> list[TrialResult]:
        return [t for t in self._trials if predicate(t)]

    def best(self, metric_name: str) -> TrialResult:
        """Completed trial with the best value of one metric."""
        metric = self.metrics[metric_name]
        trials = self.completed()
        if not trials:
            raise ValueError("no completed trials")
        key = (lambda t: -t.objectives[metric_name]) if metric.maximize else (
            lambda t: t.objectives[metric_name]
        )
        return min(trials, key=key)

    # -------------------------------------------------------------- export
    def _columns(self) -> list[str]:
        param_names = self.space.names if self.space else sorted(
            {k for t in self._trials for k in t.config}
        )
        return ["id", *param_names, *self.metrics.names, "status"]

    def rows(self) -> list[list[Any]]:
        param_names = self._columns()[1 : 1 + (len(self._columns()) - 2 - len(self.metrics))]
        out = []
        for t in self._trials:
            row: list[Any] = [t.trial_id]
            row += [t.config.get(name, "") for name in param_names]
            row += [t.objectives.get(m.name, float("nan")) for m in self.metrics]
            row.append(t.status)
            out.append(row)
        return out

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self._columns())
        writer.writerows(self.rows())
        return buffer.getvalue()

"""JSON (de)serialization of campaign artefacts.

Decision reports are meant to be shared with "experts from different
domains" (§I); this module round-trips the results table — configurations,
objectives, statuses, raw measurements — through plain JSON so reports can
be archived, diffed and re-ranked later without re-running the campaign.

Rankings are cheap to recompute, so only the table is persisted; use
:func:`rank_loaded` to rebuild rankings from a loaded table.
"""

from __future__ import annotations

import json
from typing import Any

from .campaign import DecisionReport
from .configuration import Configuration
from .metrics import Metric, MetricSet
from .ranking import RankingMethod
from .results import ResultsTable, TrialResult

__all__ = [
    "trial_to_dict",
    "trial_from_dict",
    "table_to_dict",
    "table_from_dict",
    "table_fingerprint",
    "dump_report",
    "load_table",
    "rank_loaded",
]

_FORMAT_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and other simple types into JSON natives."""
    if hasattr(value, "item") and callable(value.item):
        try:
            return value.item()
        except (ValueError, TypeError):  # pragma: no cover - exotic arrays
            return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _jsonable_tree(value: Any) -> Any:
    """Recursively coerce nested containers (for free-form extras).

    Dicts/lists/tuples recurse (tuples become lists, as JSON demands);
    leaves go through :func:`_jsonable`, so error reprs, tracebacks and
    telemetry meter snapshots all survive a dump/load round-trip.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_tree(v) for v in value]
    return _jsonable(value)


def trial_to_dict(trial: TrialResult) -> dict[str, Any]:
    """Serialize one trial result to a plain JSON-safe dict.

    The unit both the report archive and the campaign journal
    (:class:`repro.exec.CampaignJournal`) persist; inverse is
    :func:`trial_from_dict`.
    """
    return {
        "trial_id": trial.trial_id,
        "config": {k: _jsonable(v) for k, v in trial.config.as_dict().items()},
        "objectives": {k: float(v) for k, v in trial.objectives.items()},
        "measurements": {k: float(v) for k, v in trial.measurements.items()},
        "status": trial.status,
        "seed": trial.seed,
        "duration_s": trial.duration_s,
        "extras": _jsonable_tree(trial.extras),
    }


def trial_from_dict(row: dict[str, Any]) -> TrialResult:
    """Inverse of :func:`trial_to_dict` (tolerates unknown extra keys)."""
    return TrialResult(
        config=Configuration(row["config"], trial_id=row.get("trial_id")),
        objectives=dict(row.get("objectives", {})),
        measurements=dict(row.get("measurements", {})),
        status=row.get("status", "completed"),
        seed=int(row.get("seed", 0)),
        duration_s=float(row.get("duration_s", 0.0)),
        extras=dict(row.get("extras", {})),
    )


def table_to_dict(table: ResultsTable) -> dict[str, Any]:
    """Serialize a results table (metrics + every trial) to plain dicts."""
    return {
        "format_version": _FORMAT_VERSION,
        "metrics": [
            {"name": m.name, "direction": m.direction, "unit": m.unit, "key": m.key}
            for m in table.metrics
        ],
        "trials": [trial_to_dict(t) for t in table],
    }


#: extras keys that vary run-to-run without changing the decision
#: ("attempts": how often a trial ran before succeeding depends on which
#: worker crashed when, not on the decisions the table encodes)
_VOLATILE_EXTRAS = ("telemetry", "traceback", "attempts")


def table_fingerprint(table: ResultsTable) -> str:
    """Canonical JSON of a table with wall-clock noise stripped.

    Two campaign runs that made the same decisions — same
    configurations, seeds, objectives, statuses — produce the same
    fingerprint even though trial durations, telemetry meter snapshots
    and traceback text differ between runs and executors. Used by the
    cross-executor determinism tests and handy for diffing archived
    reports.
    """
    rows = []
    for trial in sorted(table, key=lambda t: (t.trial_id is None, t.trial_id)):
        row = trial_to_dict(trial)
        row["duration_s"] = 0.0
        row["extras"] = {
            k: v for k, v in row["extras"].items() if k not in _VOLATILE_EXTRAS
        }
        rows.append(row)
    payload = {
        "metrics": [m.key for m in table.metrics],
        "trials": rows,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def table_from_dict(payload: dict[str, Any]) -> ResultsTable:
    """Inverse of :func:`table_to_dict`."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported report format version {version!r}")
    metrics = MetricSet(
        [
            Metric(
                name=m["name"],
                direction=m["direction"],
                unit=m.get("unit", ""),
                key=m.get("key"),
            )
            for m in payload["metrics"]
        ]
    )
    table = ResultsTable(metrics)
    for row in payload["trials"]:
        table.add(trial_from_dict(row))
    return table


def dump_report(report: DecisionReport, path: str, indent: int = 2) -> None:
    """Write a decision report's table (plus metadata) to a JSON file."""
    payload = table_to_dict(report.table)
    payload["meta"] = {k: _jsonable(v) for k, v in report.meta.items()}
    payload["elapsed_s"] = report.elapsed_s
    payload["fronts"] = {name: list(ids) for name, ids in report.fronts().items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent)


def load_table(path: str) -> ResultsTable:
    """Load the results table saved by :func:`dump_report`."""
    with open(path, encoding="utf-8") as handle:
        return table_from_dict(json.load(handle))


def rank_loaded(table: ResultsTable, rankers: list[RankingMethod]) -> DecisionReport:
    """Re-rank a loaded table into a fresh :class:`DecisionReport`."""
    rankings = {r.name: r.rank(table) for r in rankers}
    return DecisionReport(table=table, rankings=rankings, meta={"source": "loaded"})

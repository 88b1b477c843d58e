"""Campaign checkpoint journal: one JSONL line per finished trial.

An interrupted campaign (crash, ``kill -9``, power loss) loses nothing
it already paid for: every committed trial — completed, failed or
pruned — is appended to the journal *and flushed* before the campaign
moves on. Resuming replays those trials into the results table (and
into the explorer/pruner) without re-evaluating them, then continues
with whatever the explorer proposes next.

File layout::

    {"type": "campaign", "format_version": 2, "space": ..., "study": ..., ...}
    {"type": "trial", "checkpoints": [...], ...trial fields...}
    {"type": "trial", ...}

The header holds the whole campaign identity
(:meth:`repro.core.Campaign.identity`: space and fault-plan hashes,
metric names, the case study's settings, explorer, base seed, seed
strategy and the code-version tag). A resume verifies every field, in
the header's JSON form, and raises :class:`JournalMismatch` naming the
first that differs — silently mixing two campaigns' trials would poison
the decision report. A journal of another ``format_version`` is refused
the same way. A torn final line (the process died mid-write) is
tolerated and dropped on load.

Trial lines reuse the report serialization
(:func:`repro.core.serialization.trial_to_dict`) plus the learning-curve
``checkpoints``, so a resumed pruner sees the same comparison data an
uninterrupted run would have accumulated.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Any, Iterator

__all__ = ["CampaignJournal", "JournalMismatch"]

_FORMAT_VERSION = 2


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different campaign."""


class CampaignJournal:
    """Append-only trial checkpoint log with resume support.

    ``resume=False`` starts a fresh journal (truncating any existing
    file); ``resume=True`` loads the existing file's trials for replay
    and appends new ones after it. ``CampaignJournal.resume(path)`` is
    the explicit constructor the CLI uses.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        from ..core.serialization import trial_from_dict  # local: avoid cycle

        self.path = os.fspath(path)
        self._trial_from_dict = trial_from_dict
        self._handle: Any = None
        self._header: dict[str, Any] | None = None
        #: trial_id -> (trial dict, checkpoints)
        self._entries: dict[int, dict[str, Any]] = {}
        self.n_replayed = 0
        #: set when a resume runs under a different executor topology
        self.topology_warning: str | None = None
        if resume:
            if not os.path.exists(self.path):
                raise FileNotFoundError(
                    f"cannot resume: no journal at {self.path!r}"
                )
            self._load()
        elif os.path.exists(self.path):
            os.remove(self.path)

    @classmethod
    def resume(cls, path: str | os.PathLike) -> "CampaignJournal":
        return cls(path, resume=True)

    @classmethod
    def resume_or_fresh(cls, path: str | os.PathLike) -> "CampaignJournal":
        """Resume when a journal exists at ``path``, else start fresh.

        Long-running services (``repro serve``) re-enqueue interrupted
        jobs on restart without knowing whether the previous process got
        far enough to journal anything — this constructor makes that
        idempotent: first run writes a fresh journal, every restart
        replays whatever the last one committed.
        """
        return cls(path, resume=os.path.exists(path))

    # -------------------------------------------------------------- loading
    def _load(self) -> None:
        first = True
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if first:
                        # A torn *header* is not a torn tail: nothing in this
                        # file is attributable to any campaign. Refusing beats
                        # silently starting a fresh journal over it.
                        raise JournalMismatch(
                            f"journal {self.path!r} has a corrupt header line; "
                            "refusing to resume (delete the file to start over)"
                        ) from None
                    break  # torn tail from a killed writer: drop and stop
                if first and record.get("type") != "campaign":
                    raise JournalMismatch(
                        f"journal {self.path!r} does not start with a campaign "
                        f"header (got type={record.get('type')!r}); refusing to resume"
                    )
                first = False
                if record.get("type") == "campaign":
                    self._header = record
                elif record.get("type") == "trial":
                    trial_id = record.get("trial_id")
                    if trial_id is not None:
                        self._entries[int(trial_id)] = record

    @staticmethod
    def committed_trials(path: str | os.PathLike) -> Iterator[dict[str, Any]]:
        """The trials journaled at ``path``, in commit order, each as
        :func:`~repro.core.serialization.trial_to_dict` wrote it (the
        journal-only ``type`` and ``checkpoints`` keys stripped).

        Reads line by line and stops at a torn tail, as a resume does; a
        missing journal has no trials.
        """
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    return
                if record.pop("type", None) == "trial":
                    record.pop("checkpoints", None)
                    yield record

    @property
    def n_recorded(self) -> int:
        """Trials currently replayable from this journal."""
        return len(self._entries)

    # ------------------------------------------------------------ lifecycle
    def open(
        self, identity: dict[str, Any], topology: dict[str, Any] | None = None
    ) -> None:
        """Start writing: verify identity on resume, else write header.

        ``topology`` records the execution backend (executor kind +
        worker count). Unlike the identity fields it does **not** gate
        the resume — commit order makes results topology-independent —
        but a mismatch is *warned* about, because wall-times and worker
        attributions in the merged telemetry will differ from the
        original run's.
        """
        header = {"type": "campaign", "format_version": _FORMAT_VERSION, **identity}
        if topology is not None:
            header["topology"] = dict(topology)
        # compare as the header reads back from disk (tuples become lists)
        header = json.loads(json.dumps(header))
        if self._header is not None:
            version = self._header.get("format_version")
            if version != _FORMAT_VERSION:
                raise JournalMismatch(
                    f"journal {self.path!r} has format version {version!r}, "
                    f"expected {_FORMAT_VERSION}; its header does not hold the "
                    "whole campaign identity (delete the file to start over)"
                )
            for field in {**header, **self._header}:
                if field != "topology" and self._header.get(field) != header.get(field):
                    raise JournalMismatch(
                        f"journal {self.path!r} was written by a different "
                        f"campaign: {field}={self._header.get(field)!r} on disk "
                        f"vs {header.get(field)!r} now"
                    )
            recorded = self._header.get("topology")
            if (
                topology is not None
                and recorded is not None
                and recorded != header["topology"]
            ):
                self.topology_warning = (
                    f"journal {self.path!r} was written under topology "
                    f"{recorded!r} but is being resumed under "
                    f"{header['topology']!r}; results are unaffected "
                    "(commit order is topology-independent) but telemetry "
                    "timings and worker lanes will differ"
                )
                warnings.warn(self.topology_warning, stacklevel=2)
        # the handle outlives this call on purpose: one append stream per
        # campaign, flushed per record and closed in close()
        self._handle = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
        if self._header is None:
            self._header = header
            self._write(header)

    def _write(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record))
        self._handle.write("\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record(self, trial: Any, checkpoints: list[tuple[int, float]] | None = None) -> None:
        """Durably append one committed trial."""
        from ..core.serialization import trial_to_dict  # local: avoid cycle

        if self._handle is None:
            raise RuntimeError("journal not opened; call open(identity) first")
        payload = {
            "type": "trial",
            **trial_to_dict(trial),
            "checkpoints": [[int(s), float(v)] for s, v in (checkpoints or [])],
        }
        self._write(payload)
        if trial.trial_id is not None:
            self._entries[int(trial.trial_id)] = payload

    # -------------------------------------------------------------- replay
    def lookup(self, config: Any) -> tuple[Any, list[tuple[int, float]]] | None:
        """The recorded (TrialResult, checkpoints) for ``config``, if any.

        A hit requires both the trial id *and* the configuration values
        to match — an explorer proposing different configurations than
        the journaled run (e.g. a changed seed) must not replay stale
        results.
        """
        if config.trial_id is None:
            return None
        entry = self._entries.get(int(config.trial_id))
        if entry is None:
            return None
        trial = self._trial_from_dict(entry)
        if trial.config.key() != config.key():
            return None
        self.n_replayed += 1
        checkpoints = [(int(s), float(v)) for s, v in entry.get("checkpoints", [])]
        return trial, checkpoints

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

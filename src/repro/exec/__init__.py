"""Trial execution subsystem: *where* and *how reliably* trials run.

The methodology core (:mod:`repro.core`) decides *what* to evaluate;
this package owns the execution substrate underneath
:meth:`~repro.core.Campaign.run`:

* **executors** — pluggable backends (:class:`SerialExecutor`, the
  historical inline path and default; :class:`ThreadExecutor`;
  :class:`ProcessExecutor` with one spawn-safe OS process per in-flight
  trial) behind one tiny submit/poll contract;
* **journal** — :class:`CampaignJournal`, a flushed JSONL checkpoint of
  every committed trial so an interrupted campaign resumes exactly
  where it stopped (``repro campaign --resume PATH``);
* **retries** — :class:`RetryPolicy`, bounded re-attempts with
  exponential backoff for transiently failing trials, plus per-trial
  timeouts and worker-crash containment in the executors themselves.

Determinism is preserved across executors: every trial's seed derives
from its ``trial_id`` (via the campaign's ``seed_strategy``) rather
than from arrival order, and the campaign commits results to the
table / explorer / pruner in **submission order** no matter which
worker finishes first — so, for ask-order-deterministic explorers, the
serial, thread and process backends produce identical results tables.
"""

from .cache import CODE_HASH_PACKAGES, TrialCache, atomic_write, code_version_tag
from .executors import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    register_executor,
)
from .journal import CampaignJournal, JournalMismatch
from .payload import OUTCOME_STATUSES, TrialOutcome, TrialTask, execute_trial
from .retry import NO_RETRY, RetryPolicy

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
    "register_executor",
    "TrialTask",
    "TrialOutcome",
    "OUTCOME_STATUSES",
    "execute_trial",
    "CampaignJournal",
    "JournalMismatch",
    "RetryPolicy",
    "NO_RETRY",
    "TrialCache",
    "atomic_write",
    "code_version_tag",
    "CODE_HASH_PACKAGES",
]

"""Campaign-as-a-service: the HTTP server behind ``repro serve``.

Two layers:

* :class:`CampaignService` — everything that is true regardless of HTTP:
  spec validation, the per-tenant :class:`~repro.serve.queue.JobQueue`,
  running campaigns on the existing executor/journal/cache stack,
  durable per-job state under ``state_dir``, and graceful drain
  (checkpoint running campaigns, resume them on the next start).
* :class:`CampaignServer` — a stdlib ``ThreadingHTTPServer`` translating
  the REST surface onto the service.

Endpoints::

    GET  /                      single-file HTML dashboard
    GET  /healthz               liveness + queue/meter snapshot (no auth)
    POST /campaigns             submit a campaign spec -> 202 {"id": ...}
    GET  /campaigns             this tenant's jobs
    GET  /campaigns/{id}        status + table fingerprint digest
    GET  /campaigns/{id}/trials chunked JSONL, one line per committed trial
    GET  /campaigns/{id}/table  full table payload (reconstructable via
                                ``table_from_dict`` for byte-identity checks)
    GET  /campaigns/{id}/pareto fronts + per-front metric axes
    GET  /campaigns/{id}/trace  Chrome trace-event JSON (Perfetto)

Errors are always JSON: ``{"error": {"type": ..., "message": ...}}``.

Durability model: each job persists ``<id>.job.json`` (spec + state),
``<id>.journal.jsonl`` (the existing campaign journal), ``<id>.telemetry
.jsonl`` and, on completion, ``<id>.result.json``; the two JSON files are
replaced through :func:`~repro.exec.atomic_write`'s fsync'd rename, as
trial-cache entries are. Only a running job
keeps its trial rows in memory; a finished one streams them from these
files, the same way before and after a restart. A SIGTERM drain stops
accepting work, trips every running campaign's stop flag (the campaign
checkpoints its committed prefix via the journal) and marks those jobs
``interrupted``; the next ``repro serve`` on the same ``state_dir``
re-enqueues them and the journal replays everything already paid for.
A journal the campaign refuses (written by another build or journal
format) is moved aside to ``<id>.journal.refused-<restarts>.jsonl``,
bytes untouched, and the job runs its stored spec from the start.

Request threads never sleep or park on campaign completion (lint rule
RPR009): long waits are chunked streams built from bounded waits.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import secrets
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator

from ..core import (
    Campaign,
    table_fingerprint,
    table_to_dict,
    trial_to_dict,
)
from ..core.campaign import DecisionReport
from ..exec import CampaignJournal, JournalMismatch, RetryPolicy, TrialCache, atomic_write
from ..faults import FaultPlan
from ..obs import JsonlSink, MeterRegistry, Telemetry, chrome_trace, load_records
from ..paper import EXPLORERS, Scale, make_explorer, table1_campaign
from .auth import TokenAuth
from .dashboard import DASHBOARD_HTML
from .queue import Job, JobQueue

__all__ = ["SpecError", "validate_spec", "CampaignService", "CampaignServer"]

#: largest request body the server will read
_MAX_BODY_BYTES = 1 << 20

#: executors a spec may name (remote execution is deliberately absent:
#: the service owns its host; clients do not get to point it at fleets)
_EXECUTORS = ("serial", "thread", "process")
_SEED_STRATEGIES = ("fixed", "increment")


class SpecError(ValueError):
    """A submission that fails validation (maps to HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _int_field(spec: dict[str, Any], key: str, lo: int, hi: int) -> int:
    value = spec[key]
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{key!r} must be an integer",
    )
    _require(lo <= value <= hi, f"{key!r} must be in [{lo}, {hi}], got {value}")
    return int(value)


#: every accepted spec key with its default
_SPEC_DEFAULTS: dict[str, Any] = {
    "name": "",
    "explorer": "table1",
    "trials": 18,
    "steps": 200,
    "seed": 0,
    "seed_strategy": "fixed",
    "executor": "serial",
    "max_workers": 2,
    "n_envs": 1,
    "retries": 0,
    "trial_timeout": None,
    "fault_plan": None,
    "cache": True,
}


def validate_spec(payload: Any) -> dict[str, Any]:
    """Normalize a submitted campaign spec, raising :class:`SpecError`.

    The returned dict has every key of :data:`_SPEC_DEFAULTS`, typed and
    bounded — it is safe to persist verbatim and to rebuild a campaign
    from after a restart.
    """
    _require(isinstance(payload, dict), "submission must be a JSON object")
    unknown = sorted(set(payload) - set(_SPEC_DEFAULTS))
    _require(not unknown, f"unknown spec key(s): {', '.join(unknown)}")
    spec = {**_SPEC_DEFAULTS, **payload}
    _require(isinstance(spec["name"], str), "'name' must be a string")
    _require(len(spec["name"]) <= 120, "'name' must be at most 120 characters")
    _require(
        spec["explorer"] in EXPLORERS,
        f"'explorer' must be one of {list(EXPLORERS)}, got {spec['explorer']!r}",
    )
    _require(
        spec["executor"] in _EXECUTORS,
        f"'executor' must be one of {list(_EXECUTORS)}, got {spec['executor']!r} "
        "(remote fleets are configured server-side, not per submission)",
    )
    _require(
        spec["seed_strategy"] in _SEED_STRATEGIES,
        f"'seed_strategy' must be one of {list(_SEED_STRATEGIES)}",
    )
    spec["trials"] = _int_field(spec, "trials", 1, 1000)
    spec["steps"] = _int_field(spec, "steps", 1, 1_000_000)
    spec["seed"] = _int_field(spec, "seed", 0, 2**31 - 1)
    spec["max_workers"] = _int_field(spec, "max_workers", 1, 64)
    spec["n_envs"] = _int_field(spec, "n_envs", 1, 64)
    spec["retries"] = _int_field(spec, "retries", 0, 10)
    if spec["trial_timeout"] is not None:
        timeout = spec["trial_timeout"]
        _require(
            isinstance(timeout, (int, float)) and not isinstance(timeout, bool),
            "'trial_timeout' must be a number of seconds",
        )
        _require(0 < float(timeout) <= 86_400, "'trial_timeout' must be in (0, 86400]")
        spec["trial_timeout"] = float(timeout)
    _require(isinstance(spec["cache"], bool), "'cache' must be a boolean")
    if spec["fault_plan"] is not None:
        _require(
            isinstance(spec["fault_plan"], dict),
            "'fault_plan' must be an inline plan object (see 'repro faults')",
        )
        try:
            plan = FaultPlan.from_dict(spec["fault_plan"])
            plan.validate()
        except ValueError as exc:
            raise SpecError(f"bad 'fault_plan': {exc}") from exc
        spec["fault_plan"] = plan.to_dict()
    return spec


def expected_trials(spec: dict[str, Any]) -> int:
    return 18 if spec["explorer"] == "table1" else int(spec["trials"])


class CampaignService:
    """Runs submitted campaigns; owns all durable state under ``state_dir``."""

    def __init__(
        self,
        state_dir: str,
        auth: TokenAuth | None = None,
        max_concurrent: int = 2,
        cache_dir: str | None = None,
    ) -> None:
        self.state_dir = os.path.abspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.auth = auth or TokenAuth()
        #: one content-addressed cache shared by every tenant: identical
        #: trials submitted by different clients are paid for once
        self.cache = TrialCache(cache_dir or os.path.join(self.state_dir, "cache"))
        self.queue = JobQueue(self._run_job, max_concurrent=max_concurrent)
        self.meters = MeterRegistry()
        self._meters_lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._draining = False
        self._started_monotonic = time.monotonic()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> int:
        """Recover persisted jobs, re-enqueue unfinished ones, start runners.

        Returns how many interrupted/queued jobs were re-enqueued.
        """
        resumed = 0
        for job in self._load_persisted_jobs():
            with self._jobs_lock:
                self._jobs[job.id] = job
            if job.state in ("queued", "running", "interrupted"):
                job.reset_for_resume()
                self._persist(job)
                self.queue.submit(job)
                resumed += 1
            elif job.state == "completed":
                snapshot = self._read_result(job.id)
                if snapshot is not None:
                    with self._meters_lock:
                        self.meters.merge_snapshot(
                            snapshot.get("meta", {}).get("telemetry", {})
                        )
        self.queue.start()
        return resumed

    def _load_persisted_jobs(self) -> list[Job]:
        jobs = []
        for entry in sorted(os.listdir(self.state_dir)):
            if not entry.endswith(".job.json"):
                continue
            path = os.path.join(self.state_dir, entry)
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # a torn job file: skip, never crash startup
            job = Job(
                id=payload["id"],
                tenant=payload.get("tenant", "public"),
                spec=payload.get("spec", {}),
                name=payload.get("name", ""),
                state=payload.get("state", "queued"),
                submitted_at=payload.get("submitted_at", 0.0),
                n_trials_done=int(payload.get("n_trials_done", 0)),
            )
            job.started_at = payload.get("started_at")
            job.finished_at = payload.get("finished_at")
            job.error = payload.get("error")
            job.fingerprint = payload.get("fingerprint")
            job.n_trials_expected = payload.get("n_trials_expected")
            job.restarts = int(payload.get("restarts", 0))
            jobs.append(job)
        return jobs

    def drain(self, grace_s: float = 60.0) -> None:
        """SIGTERM path: refuse new work, checkpoint running campaigns."""
        self._draining = True
        with self._jobs_lock:
            running = [j for j in self._jobs.values() if j.state == "running"]
        for job in running:
            job.request_stop()
        self.queue.drain(grace_s=grace_s)

    @property
    def draining(self) -> bool:
        return self._draining

    # ---------------------------------------------------------- submission
    def submit(self, tenant: str, payload: Any) -> Job:
        if self._draining:
            raise RuntimeError("service is draining")
        spec = validate_spec(payload)
        job = Job(
            id=f"job-{secrets.token_hex(6)}",
            tenant=tenant,
            spec=spec,
            name=str(spec["name"]),
        )
        job.n_trials_expected = expected_trials(spec)
        with self._jobs_lock:
            self._jobs[job.id] = job
        self._persist(job)
        self.queue.submit(job)
        return job

    def job_for(self, tenant: str, job_id: str) -> Job | None:
        """The job, or None when absent *or owned by another tenant* —
        cross-tenant probes and true misses are indistinguishable."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None or job.tenant != tenant:
            return None
        return job

    def jobs_for(self, tenant: str) -> list[Job]:
        with self._jobs_lock:
            jobs = [j for j in self._jobs.values() if j.tenant == tenant]
        return sorted(jobs, key=lambda j: j.submitted_at)

    def job_counts(self) -> dict[str, int]:
        with self._jobs_lock:
            states = [j.state for j in self._jobs.values()]
        return {state: states.count(state) for state in sorted(set(states))}

    def healthz(self) -> dict[str, Any]:
        with self._meters_lock:
            meters = self.meters.snapshot()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "max_concurrent": self.queue.max_concurrent,
            "auth": self.auth.enabled,
            "jobs": self.job_counts(),
            "queue": self.queue.counts(),
            "meters": meters,
        }

    # ---------------------------------------------------------- filesystem
    def _path(self, job_id: str, suffix: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.{suffix}")

    def _persist(self, job: Job) -> None:
        atomic_write(self._path(job.id, "job.json"), json.dumps(job.snapshot()))

    def _read_result(self, job_id: str) -> dict[str, Any] | None:
        path = self._path(job_id, "result.json")
        try:
            with open(path, encoding="utf-8") as handle:
                payload: dict[str, Any] = json.load(handle)
                return payload
        except (OSError, json.JSONDecodeError):
            return None

    def result_for(self, job: Job) -> dict[str, Any] | None:
        """The completed job's archived report payload (None until done)."""
        if job.state != "completed":
            return None
        return self._read_result(job.id)

    def trial_rows(self, job: Job) -> Iterator[dict[str, Any]]:
        """Every committed trial row of ``job``, in commit order.

        Follows the in-memory feed while the job runs, in bounded waits.
        Once the job is terminal its rows have left memory, and the rest
        comes from its archive, starting at the row the feed had reached:
        ``result.json`` once completed, else the journal.
        """
        sent = 0
        while (rows := job.trials_after(sent, timeout=0.5)) is not None:
            yield from rows
            sent += len(rows)
        if job.state == "completed":
            archive = (self._read_result(job.id) or {}).get("trials", [])
        else:
            archive = CampaignJournal.committed_trials(self._path(job.id, "journal.jsonl"))
        yield from itertools.islice(archive, sent, None)

    def trace_for(self, job: Job) -> dict[str, Any] | None:
        path = self._path(job.id, "telemetry.jsonl")
        if not os.path.exists(path):
            return None
        return chrome_trace(load_records(path))

    # ------------------------------------------------------------- running
    def _build_campaign(self, job: Job, telemetry: Telemetry) -> Campaign:
        spec = job.spec
        journal = CampaignJournal.resume_or_fresh(self._path(job.id, "journal.jsonl"))
        fault_plan = (
            FaultPlan.from_dict(spec["fault_plan"]) if spec.get("fault_plan") else None
        )
        return table1_campaign(
            seed=spec["seed"],
            scale=Scale(real_steps=spec["steps"]),
            explorer=make_explorer(spec["explorer"], spec["trials"], spec["seed"]),
            seed_strategy=spec["seed_strategy"],
            telemetry=telemetry,
            fault_plan=fault_plan,
            n_envs=spec["n_envs"],
            executor=spec["executor"],
            max_workers=spec["max_workers"],
            retry=RetryPolicy(max_retries=spec["retries"]) if spec["retries"] else None,
            trial_timeout=spec["trial_timeout"],
            journal=journal,
            cache=self.cache if spec["cache"] else None,
        )

    def _run_job(self, job: Job) -> None:
        job.mark("running")
        self._persist(job)
        try:
            try:
                report = self._run_campaign(job)
            except JournalMismatch:
                # written by another build or journal format: none of its
                # trials can be replayed, so keep its bytes beside the job
                # and run the stored spec over a fresh journal
                os.replace(
                    self._path(job.id, "journal.jsonl"),
                    self._path(job.id, f"journal.refused-{job.restarts}.jsonl"),
                )
                report = self._run_campaign(job)
            job.n_replayed = int(report.meta.get("n_replayed", 0))
            if report.meta.get("interrupted"):
                job.mark("interrupted")
            else:
                self._complete(job, report)
        except Exception as exc:  # noqa: BLE001 - job failure is data, not a crash
            job.mark("failed", error=f"{type(exc).__name__}: {exc}")
        finally:
            self._persist(job)

    def _run_campaign(self, job: Job) -> DecisionReport:
        # one telemetry log per run: JsonlSink truncates, so the trace
        # endpoint covers the current incarnation's work (the journal,
        # not the trace, is the durability mechanism)
        telemetry = Telemetry(JsonlSink(self._path(job.id, "telemetry.jsonl")))
        try:
            campaign = self._build_campaign(job, telemetry)

            def progress(trial: Any, n_done: int) -> None:
                job.append_trial(trial_to_dict(trial))

            return campaign.run(progress=progress, stop=job.stop_requested)
        finally:
            telemetry.close()

    def _complete(self, job: Job, report: DecisionReport) -> None:
        fingerprint = table_fingerprint(report.table)
        job.fingerprint = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        payload = table_to_dict(report.table)
        payload["meta"] = report.meta
        payload["elapsed_s"] = report.elapsed_s
        payload["fronts"] = {name: list(ids) for name, ids in report.fronts().items()}
        payload["front_axes"] = {
            name: list(ranking.metric_names)
            for name, ranking in report.rankings.items()
        }
        payload["fingerprint_sha256"] = job.fingerprint
        atomic_write(self._path(job.id, "result.json"), json.dumps(payload))
        if isinstance(report.meta.get("telemetry"), dict):
            with self._meters_lock:
                self.meters.merge_snapshot(report.meta["telemetry"])
        with self._meters_lock:
            self.meters.counter("serve/jobs_completed").inc()
            self.meters.counter("serve/trials_committed").inc(len(report.table))
        job.mark("completed")


# --------------------------------------------------------------------- HTTP


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: CampaignService
    verbose: bool = False


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _ServeHTTPServer  # type: ignore[assignment]

    # ------------------------------------------------------------ plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, kind: str, message: str) -> None:
        self._send_json(status, {"error": {"type": kind, "message": message}})

    def _send_html(self, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _tenant(self) -> str | None:
        return self.server.service.auth.tenant_for(self.headers.get("Authorization"))

    def _read_body(self) -> bytes | None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY_BYTES:
            return None
        return self.rfile.read(length)

    # -------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        service = self.server.service
        if path == "/":
            self._send_html(DASHBOARD_HTML)
            return
        if path == "/healthz":
            self._send_json(200, service.healthz())
            return
        tenant = self._tenant()
        if tenant is None:
            self._send_error_json(401, "unauthorized", "missing or invalid bearer token")
            return
        if path == "/campaigns":
            self._send_json(
                200, {"campaigns": [j.snapshot() for j in service.jobs_for(tenant)]}
            )
            return
        parts = path.strip("/").split("/")
        if parts[0] != "campaigns" or len(parts) not in (2, 3):
            self._send_error_json(404, "not_found", f"no such endpoint: {path}")
            return
        job = service.job_for(tenant, parts[1])
        if job is None:
            self._send_error_json(404, "not_found", f"no such campaign: {parts[1]}")
            return
        if len(parts) == 2:
            self._send_json(200, job.snapshot())
            return
        handler = {
            "trials": self._get_trials,
            "table": self._get_table,
            "pareto": self._get_pareto,
            "trace": self._get_trace,
        }.get(parts[2])
        if handler is None:
            self._send_error_json(404, "not_found", f"no such endpoint: {path}")
            return
        handler(job)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        service = self.server.service
        if path != "/campaigns":
            self._send_error_json(404, "not_found", f"no such endpoint: {self.path}")
            return
        tenant = self._tenant()
        if tenant is None:
            self._send_error_json(401, "unauthorized", "missing or invalid bearer token")
            return
        if service.draining:
            self._send_error_json(
                503, "draining", "server is draining; resubmit after restart"
            )
            return
        body = self._read_body()
        if body is None:
            self._send_error_json(
                400, "bad_request", f"body required (at most {_MAX_BODY_BYTES} bytes)"
            )
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, "bad_request", f"body is not valid JSON: {exc}")
            return
        try:
            job = service.submit(tenant, payload)
        except SpecError as exc:
            self._send_error_json(400, "bad_request", str(exc))
            return
        except RuntimeError:
            self._send_error_json(
                503, "draining", "server is draining; resubmit after restart"
            )
            return
        self._send_json(
            202, {"id": job.id, "state": job.state, "url": f"/campaigns/{job.id}"}
        )

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._send_error_json(405, "method_not_allowed", "use GET or POST")

    do_DELETE = do_PUT

    # ----------------------------------------------------------- sub-views
    def _get_trials(self, job: Job) -> None:
        """Chunked JSONL: every committed trial, then one terminal record."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()

        def chunk(line: dict[str, Any]) -> None:
            data = json.dumps(line).encode("utf-8") + b"\n"
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
            self.wfile.flush()

        sent = 0
        for row in self.server.service.trial_rows(job):
            chunk({"type": "trial", **row})
            sent += 1
        chunk(
            {
                "type": "end",
                "state": job.state,
                "n_trials": sent,
                "fingerprint": job.fingerprint,
            }
        )
        self.wfile.write(b"0\r\n\r\n")

    def _get_table(self, job: Job) -> None:
        result = self.server.service.result_for(job)
        if result is None:
            self._send_error_json(
                409, "not_ready", f"campaign {job.id} is {job.state}, not completed"
            )
            return
        self._send_json(200, result)

    def _get_pareto(self, job: Job) -> None:
        result = self.server.service.result_for(job)
        if result is None:
            self._send_error_json(
                409, "not_ready", f"campaign {job.id} is {job.state}, not completed"
            )
            return
        self._send_json(
            200,
            {
                "id": job.id,
                "fronts": result.get("fronts", {}),
                "front_axes": result.get("front_axes", {}),
                "fingerprint": result.get("fingerprint_sha256"),
            },
        )

    def _get_trace(self, job: Job) -> None:
        trace = self.server.service.trace_for(job)
        if trace is None:
            self._send_error_json(
                404, "not_found", f"no telemetry recorded for campaign {job.id}"
            )
            return
        self._send_json(200, trace)


class CampaignServer:
    """Binds a :class:`CampaignService` to a listening socket."""

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._httpd = _ServeHTTPServer((host, port), _Handler)
        self._httpd.service = service
        self._httpd.verbose = verbose
        self._thread: threading.Thread | None = None
        if not service.auth.enabled and host not in ("127.0.0.1", "localhost", "::1"):
            warnings.warn(
                f"campaign server listening on {host} with no auth tokens: "
                "anyone who can reach the port can schedule work and read "
                "results; pass --token or bind to 127.0.0.1",
                UserWarning,
                stacklevel=2,
            )

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> int:
        """Recover state, start runners, serve HTTP in the background.

        Returns how many unfinished jobs were re-enqueued from disk.
        """
        resumed = self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return resumed

    def drain(self, grace_s: float = 60.0) -> None:
        """Graceful shutdown: drain the service, then stop listening."""
        self.service.drain(grace_s=grace_s)
        self.shutdown()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

"""Campaign service tests: real sockets on ephemeral ports.

Covers the ``repro.serve`` package end to end:

* spec validation (typed 400s before any work is scheduled);
* bearer-token auth (401s, cross-tenant 404 indistinguishability);
* the queue's concurrency limit and round-robin tenant fairness,
  pinned down with an injected runner gated on ``threading.Event``;
* the JSONL trial stream's terminal record;
* graceful drain → "interrupted" checkpoint → restart resumes from the
  journal and replays committed trials instead of re-running them;
* finished jobs: their rows leave memory, and their trial stream is read
  back from the on-disk archive byte for byte, before and after a restart.

Everything binds ``127.0.0.1:0`` and reads the kernel-assigned port, so
tests run in parallel CI shards without port collisions.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time

import pytest

from repro.core import RandomSearch
from repro.exec import CampaignJournal
from repro.obs import MeterRegistry
from repro.serve import (
    OPEN_TENANT,
    CampaignServer,
    CampaignService,
    Job,
    JobQueue,
    SpecError,
    TokenAuth,
    tenant_label,
    validate_spec,
)

TOKEN_A = "alpha-secret"
TOKEN_B = "beta-secret"

# small-but-real campaign: 2 random-search trials at 60 env steps runs in
# a couple of seconds and still exercises the full executor/journal path
FAST_SPEC = {"explorer": "random", "trials": 2, "steps": 60, "cache": False}


# ------------------------------------------------------------------ helpers
def request(
    port: int,
    method: str,
    path: str,
    token: str | None = None,
    body: object = None,
):
    """One HTTP exchange; returns (status, decoded-JSON-or-raw-bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    payload = None
    if body is not None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    try:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    if (response.getheader("Content-Type") or "").startswith("application/json"):
        return response.status, json.loads(data)
    return response.status, data


def wait_for_state(port, token, job_id, states, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, snap = request(port, "GET", f"/campaigns/{job_id}", token)
        assert status == 200, snap
        if snap["state"] in states:
            return snap
        time.sleep(0.2)
    raise AssertionError(f"{job_id} never reached {states}: {snap}")


def wait_until(predicate, timeout=60.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(message)


# ------------------------------------------------------------- validate_spec
class TestValidateSpec:
    def test_defaults_fill_every_key(self):
        spec = validate_spec({})
        assert spec["explorer"] == "table1"
        assert spec["steps"] == 200 and spec["cache"] is True
        assert spec["executor"] == "serial"

    def test_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            validate_spec([1, 2, 3])

    def test_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown spec key.*nproc"):
            validate_spec({"nproc": 4})

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(SpecError, match="'trials' must be an integer"):
            validate_spec({"trials": True})

    def test_rejects_out_of_bounds(self):
        with pytest.raises(SpecError, match="'trials' must be in"):
            validate_spec({"trials": 0})

    def test_rejects_remote_executor(self):
        with pytest.raises(SpecError, match="configured server-side"):
            validate_spec({"executor": "remote"})

    def test_rejects_bad_fault_plan(self):
        with pytest.raises(SpecError, match="bad 'fault_plan'"):
            validate_spec({"fault_plan": {"format_version": 999}})
        with pytest.raises(SpecError, match="bad 'fault_plan'"):
            validate_spec({"fault_plan": {"task_failures": {}}})  # no rate
        # a misspelled key would otherwise decode to a fault-free plan
        with pytest.raises(SpecError, match=r"fault plan\.straglers"):
            validate_spec({"fault_plan": {"straglers": [{"node": 0, "at": 1.0, "duration": 2.0}]}})
        nan_factor = json.loads('{"node": 0, "at": 1.0, "duration": 2.0, "factor": NaN}')
        with pytest.raises(SpecError, match=r"fault plan\.stragglers\[0\]\.factor"):
            validate_spec({"fault_plan": {"stragglers": [nan_factor]}})

    def test_normalizes_valid_fault_plan(self):
        plan = {"seed": 7, "task_failures": {"rate": 0.1}}
        spec = validate_spec({"fault_plan": plan, "retries": 2})
        assert spec["fault_plan"]["task_failures"]["rate"] == 0.1
        assert spec["fault_plan"]["seed"] == 7
        assert spec["retries"] == 2

    def test_trial_timeout_coerced_to_float(self):
        assert validate_spec({"trial_timeout": 30})["trial_timeout"] == 30.0
        with pytest.raises(SpecError, match="trial_timeout"):
            validate_spec({"trial_timeout": -1})


# --------------------------------------------------------------------- auth
class TestTokenAuth:
    def test_open_mode_admits_everyone_as_public(self):
        auth = TokenAuth()
        assert not auth.enabled
        assert auth.tenant_for(None) == OPEN_TENANT
        assert auth.tenant_for("Bearer whatever") == OPEN_TENANT

    def test_token_mode_maps_tokens_to_stable_tenants(self):
        auth = TokenAuth([TOKEN_A, TOKEN_B])
        assert auth.enabled
        tenant = auth.tenant_for(f"Bearer {TOKEN_A}")
        assert tenant == tenant_label(TOKEN_A)
        assert tenant != auth.tenant_for(f"Bearer {TOKEN_B}")

    @pytest.mark.parametrize(
        "header", [None, "Bearer wrong", TOKEN_A, "Basic abc", "Bearer"]
    )
    def test_token_mode_rejects_everything_else(self, header):
        assert TokenAuth([TOKEN_A]).tenant_for(header) is None


# ------------------------------------------------------------------- queue
class TestJobQueue:
    def make_job(self, tenant, job_id):
        return Job(id=job_id, tenant=tenant, spec={})

    def test_concurrency_limit_queues_in_round_robin_order(self):
        """max_concurrent=1 → strictly serial, tenants served fairly."""
        started: list[str] = []
        gate = threading.Event()
        order_lock = threading.Lock()

        def runner(job: Job) -> None:
            with order_lock:
                started.append(job.id)
            gate.wait(timeout=30.0)
            job.mark("completed")

        queue = JobQueue(runner, max_concurrent=1)
        # submit before start so dispatch order is decided by the queue,
        # not by submission/start races: a1 a2 a3 from tenant A, b1 from B
        for job_id in ("a1", "a2", "a3"):
            queue.submit(self.make_job("tenant-a", job_id))
        queue.submit(self.make_job("tenant-b", "b1"))
        queue.start()

        wait_until(lambda: len(started) == 1, message="first job never started")
        assert queue.counts() == {"queued": 3, "running": 1}
        gate.set()  # release every subsequent runner invocation at once
        wait_until(lambda: len(started) == 4, message="queue never drained")
        # round-robin: tenant B's single job is served before A's backlog
        assert started == ["a1", "b1", "a2", "a3"]
        queue.drain(grace_s=5.0)

    def test_submit_after_drain_is_refused(self):
        queue = JobQueue(lambda job: job.mark("completed"), max_concurrent=1)
        queue.start()
        queue.drain(grace_s=5.0)
        with pytest.raises(RuntimeError, match="draining"):
            queue.submit(self.make_job("tenant-a", "late"))

    def test_trials_after_is_bounded_and_wakes_on_commit(self):
        job = self.make_job("tenant-a", "j1")
        start = time.monotonic()
        assert job.trials_after(0, timeout=0.2) == []
        assert time.monotonic() - start < 5.0  # bounded park, not forever
        job.append_trial({"trial": 0})
        assert job.trials_after(0, timeout=0.2) == [{"trial": 0}]

    def test_terminal_transition_drops_the_feed_but_keeps_the_count(self):
        job = self.make_job("tenant-a", "j1")
        job.mark("running")
        job.append_trial({"trial": 0})
        job.append_trial({"trial": 1})
        job.mark("failed", error="boom")
        assert job.trials_after(0, timeout=0.0) is None
        assert job.snapshot()["n_trials_done"] == 2
        with pytest.raises(RuntimeError, match="feed is closed"):
            job.append_trial({"trial": 2})
        # a job rebuilt from a terminal state record starts without rows
        restored = Job(
            id="j1", tenant="tenant-a", spec={}, state="completed", n_trials_done=2
        )
        assert restored.trials_after(0, timeout=0.0) is None
        assert restored.n_trials_done == 2
        # a restart re-enqueue reopens the feed; the replay rebuilds it
        job.reset_for_resume()
        assert job.n_trials_done == 0
        assert job.trials_after(0, timeout=0.0) == []


# -------------------------------------------------------- shared live server
@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One authenticated server with a completed 2-trial campaign."""
    state = tmp_path_factory.mktemp("serve-state")
    service = CampaignService(
        str(state), auth=TokenAuth([TOKEN_A, TOKEN_B]), max_concurrent=1
    )
    server = CampaignServer(service, port=0)
    assert server.start() == 0
    port = server.address[1]
    status, posted = request(
        port, "POST", "/campaigns", TOKEN_A, {**FAST_SPEC, "name": "shared"}
    )
    assert status == 202, posted
    snap = wait_for_state(port, TOKEN_A, posted["id"], ("completed", "failed"))
    assert snap["state"] == "completed", snap
    yield {"port": port, "state": str(state), "job_id": posted["id"]}
    server.drain(grace_s=10.0)


class TestEndpoints:
    def test_healthz_is_open_and_reports_auth(self, live):
        status, health = request(live["port"], "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok" and health["auth"] is True
        assert health["jobs"].get("completed", 0) >= 1
        assert "serve/jobs_completed" in health["meters"]["counters"]

    def test_dashboard_served_at_root_without_auth(self, live):
        status, body = request(live["port"], "GET", "/")
        assert status == 200 and b"<html" in body.lower()

    @pytest.mark.parametrize("token", [None, "wrong-token"])
    def test_campaign_routes_reject_bad_credentials(self, live, token):
        status, body = request(live["port"], "GET", "/campaigns", token)
        assert status == 401
        assert body["error"]["type"] == "unauthorized"
        status, body = request(
            live["port"], "POST", "/campaigns", token, FAST_SPEC
        )
        assert status == 401

    def test_unknown_campaign_and_endpoint_are_typed_404s(self, live):
        status, body = request(live["port"], "GET", "/campaigns/job-nope", TOKEN_A)
        assert status == 404 and body["error"]["type"] == "not_found"
        status, body = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/bogus", TOKEN_A
        )
        assert status == 404 and body["error"]["type"] == "not_found"

    def test_cross_tenant_probe_looks_like_a_miss(self, live):
        status, body = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}", TOKEN_B
        )
        assert status == 404 and body["error"]["type"] == "not_found"
        status, listing = request(live["port"], "GET", "/campaigns", TOKEN_B)
        assert status == 200 and listing["campaigns"] == []

    def test_malformed_json_is_a_typed_400(self, live):
        status, body = request(
            live["port"], "POST", "/campaigns", TOKEN_A, b"not json"
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"
        assert "not valid JSON" in body["error"]["message"]

    def test_bad_spec_is_a_typed_400_naming_the_key(self, live):
        status, body = request(
            live["port"], "POST", "/campaigns", TOKEN_A, {"explorer": "grid9"}
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"
        assert "explorer" in body["error"]["message"]

    def test_write_methods_other_than_post_are_405(self, live):
        status, body = request(
            live["port"], "DELETE", f"/campaigns/{live['job_id']}", TOKEN_A
        )
        assert status == 405 and body["error"]["type"] == "method_not_allowed"

    def test_snapshot_carries_fingerprint_and_progress(self, live):
        status, snap = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}", TOKEN_A
        )
        assert status == 200
        assert snap["state"] == "completed"
        assert snap["n_trials_done"] == 2 == snap["n_trials_expected"]
        assert len(snap["fingerprint"]) == 64  # sha256 hex
        assert snap["tenant"] == tenant_label(TOKEN_A)

    def test_trial_stream_is_jsonl_with_terminal_record(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live["port"], timeout=60)
        conn.request(
            "GET",
            f"/campaigns/{live['job_id']}/trials",
            headers={"Authorization": f"Bearer {TOKEN_A}"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line) for line in response.read().splitlines()]
        conn.close()
        assert [line["type"] for line in lines] == ["trial", "trial", "end"]
        end = lines[-1]
        assert end["state"] == "completed" and end["n_trials"] == 2
        assert end["fingerprint"] and len(end["fingerprint"]) == 64
        for row in lines[:-1]:
            assert row["status"] == "completed" and "config" in row

    def test_table_round_trips_the_fingerprint(self, live):
        import hashlib

        from repro.core import table_fingerprint, table_from_dict

        status, result = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/table", TOKEN_A
        )
        assert status == 200
        digest = hashlib.sha256(
            table_fingerprint(table_from_dict(result)).encode()
        ).hexdigest()
        assert digest == result["fingerprint_sha256"]

    def test_pareto_exposes_paper_fronts(self, live):
        status, pareto = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/pareto", TOKEN_A
        )
        assert status == 200
        assert set(pareto["fronts"]) >= {"fig4", "fig5"}
        assert pareto["fingerprint"] and pareto["id"] == live["job_id"]

    def test_trace_is_valid_chrome_trace(self, live):
        from repro.obs import validate_chrome_trace

        status, trace = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/trace", TOKEN_A
        )
        assert status == 200
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"]

    def test_table_on_unfinished_job_is_409_not_ready(self, live):
        # an 18-trial campaign cannot finish between POST and the probe;
        # module teardown's drain checkpoints it, so no completion wait
        status, posted = request(
            live["port"],
            "POST",
            "/campaigns",
            TOKEN_A,
            {"explorer": "table1", "steps": 3000, "cache": False},
        )
        assert status == 202
        for view in ("table", "pareto"):
            status, body = request(
                live["port"], "GET", f"/campaigns/{posted['id']}/{view}", TOKEN_A
            )
            assert status == 409 and body["error"]["type"] == "not_ready"


# ---------------------------------------------------------- drain + restart
class TestDrainRestart:
    def test_drain_checkpoints_and_restart_replays_journal(self, tmp_path):
        state = str(tmp_path / "state")
        spec = {"explorer": "random", "trials": 5, "steps": 60, "cache": False}

        service = CampaignService(state, max_concurrent=1)
        server = CampaignServer(service, port=0)
        server.start()
        port = server.address[1]
        status, posted = request(port, "POST", "/campaigns", None, spec)
        assert status == 202
        job_id = posted["id"]
        journal = os.path.join(state, f"{job_id}.journal.jsonl")

        def committed() -> int:
            try:
                with open(journal, encoding="utf-8") as handle:
                    return sum(
                        1 for line in handle if '"type": "trial"' in line
                    )
            except OSError:
                return 0

        wait_until(lambda: committed() >= 2, message="no trials journaled")
        server.drain(grace_s=30.0)

        with open(os.path.join(state, f"{job_id}.job.json")) as handle:
            persisted = json.load(handle)
        assert persisted["state"] == "interrupted"
        n_checkpointed = committed()
        assert 2 <= n_checkpointed < 5

        # posting into a draining service is refused with a typed 503
        # (the listener is already down here, so assert at service level)
        with pytest.raises(RuntimeError, match="draining"):
            service.submit(OPEN_TENANT, spec)

        service2 = CampaignService(state, max_concurrent=1)
        server2 = CampaignServer(service2, port=0)
        assert server2.start() == 1  # the interrupted job was re-enqueued
        try:
            snap = wait_for_state(
                server2.address[1], None, job_id, ("completed", "failed")
            )
            assert snap["state"] == "completed", snap
            assert snap["n_trials_done"] == 5
            assert snap["n_replayed"] >= n_checkpointed
            assert snap["restarts"] == 1
        finally:
            server2.drain(grace_s=10.0)

    @pytest.mark.parametrize(
        "header",
        [json.dumps({"type": "campaign", "format_version": 1}), '{"type": "camp'],
        ids=["format_version_1", "torn_header"],
    )
    def test_restart_over_a_refused_journal_sets_it_aside_and_starts_over(
        self, header, tmp_path
    ):
        """A journal the campaign refuses cannot be replayed: one whose
        header predates the whole campaign identity (refused when the
        campaign opens it) or cannot be read (refused on load). The
        re-enqueued job moves it aside untouched and runs its stored spec
        from the start, to the table a fresh submission gives."""
        state = str(tmp_path / "state")
        queued = CampaignService(state).submit(OPEN_TENANT, FAST_SPEC)  # never started
        journal = os.path.join(state, f"{queued.id}.journal.jsonl")
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write(header + "\n")
        with open(journal, "rb") as handle:
            written = handle.read()

        server = CampaignServer(CampaignService(state, max_concurrent=1), port=0)
        assert server.start() == 1
        port = server.address[1]
        try:
            snap = wait_for_state(port, None, queued.id, ("completed", "failed"))
            assert snap["state"] == "completed", snap
            assert snap["n_trials_done"] == 2 and "n_replayed" not in snap
            status, posted = request(port, "POST", "/campaigns", None, FAST_SPEC)
            assert status == 202, posted
            fresh = wait_for_state(port, None, posted["id"], ("completed", "failed"))
            assert fresh["state"] == "completed", fresh
            assert snap["fingerprint"] == fresh["fingerprint"]
            assert request(port, "GET", "/healthz")[0] == 200
        finally:
            server.drain(grace_s=10.0)
        with open(os.path.join(state, f"{queued.id}.journal.refused-1.jsonl"), "rb") as handle:
            assert handle.read() == written
        assert len(list(CampaignJournal.committed_trials(journal))) == 2

    def test_interrupted_stream_ends_with_interrupted_record(self, tmp_path):
        """The trial stream terminates (no forever-park) across a drain."""
        state = str(tmp_path / "state")
        service = CampaignService(state, max_concurrent=1)
        server = CampaignServer(service, port=0)
        server.start()
        port = server.address[1]
        status, posted = request(
            port,
            "POST",
            "/campaigns",
            None,
            {"explorer": "table1", "steps": 2000, "cache": False},
        )
        assert status == 202
        job = service.job_for(OPEN_TENANT, posted["id"])
        wait_until(lambda: job.n_trials_done >= 1, message="no trial committed")

        # establish the stream (headers received) BEFORE draining, so the
        # handler is provably mid-stream when the checkpoint lands
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        conn.request("GET", f"/campaigns/{posted['id']}/trials")
        response = conn.getresponse()
        assert response.status == 200

        lines: list[dict] = []

        def stream() -> None:
            for raw in response.read().splitlines():
                lines.append(json.loads(raw))
            conn.close()

        reader = threading.Thread(target=stream, daemon=True)
        reader.start()
        server.drain(grace_s=30.0)
        reader.join(timeout=30.0)
        assert not reader.is_alive(), "stream never terminated after drain"
        assert lines[-1]["type"] == "end"
        assert lines[-1]["state"] == "interrupted"
        assert lines[-1]["n_trials"] >= 1


# ------------------------------------------------------ finished-job streams
def stream_trials(port: int, job_id: str) -> bytes:
    status, body = request(port, "GET", f"/campaigns/{job_id}/trials")
    assert status == 200, body
    return body


def park_after_first_row(monkeypatch) -> threading.Event:
    """Park every runner right after its job's first committed row until
    the returned event is set, so a test can look at a job mid-run."""
    gate = threading.Event()
    append = Job.append_trial

    def gated(job: Job, row: dict) -> None:
        append(job, row)
        if job.n_trials_done == 1:
            gate.wait(timeout=60.0)

    monkeypatch.setattr(Job, "append_trial", gated)
    return gate


class _GivesOutExplorer(RandomSearch):
    """Random search whose ask raises after ``limit`` proposals, which
    fails the whole job with exactly ``limit`` trials committed."""

    def __init__(self, space, limit: int, **kwargs) -> None:
        super().__init__(space, **kwargs)
        self.limit = limit

    def ask(self):
        if self.n_asked >= self.limit:
            raise RuntimeError("explorer gave out")
        return super().ask()


#: three trials, so a stream opened after the first has more to follow
THREE_TRIALS = {"explorer": "random", "trials": 3, "steps": 60, "cache": False}


@pytest.fixture(scope="class")
def finished_job(tmp_path_factory):
    """One completed job whose /trials stream was read three ways: live
    (opened while the runner is parked after the first commit), after
    completion, and from a new server on the same state dir."""
    state = str(tmp_path_factory.mktemp("finished-state"))
    with pytest.MonkeyPatch.context() as patch:
        gate = park_after_first_row(patch)
        service = CampaignService(state, max_concurrent=1)
        server = CampaignServer(service, port=0)
        server.start()
        port = server.address[1]
        try:
            status, posted = request(port, "POST", "/campaigns", None, THREE_TRIALS)
            assert status == 202, posted
            job_id = posted["id"]
            job = service.job_for(OPEN_TENANT, job_id)
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                conn.request("GET", f"/campaigns/{job_id}/trials")
                response = conn.getresponse()
                first = response.readline()
                state_mid_stream = job.state
                gate.set()
                live = first + response.read()
            finally:
                gate.set()
                conn.close()
            before = wait_for_state(port, None, job_id, ("completed", "failed"))
            finished = stream_trials(port, job_id)
        finally:
            server.drain(grace_s=10.0)
    server2 = CampaignServer(CampaignService(state, max_concurrent=1), port=0)
    assert server2.start() == 0
    try:
        restarted = stream_trials(server2.address[1], job_id)
        status, after = request(server2.address[1], "GET", f"/campaigns/{job_id}")
        assert status == 200, after
    finally:
        server2.drain(grace_s=10.0)
    return {
        "state_mid_stream": state_mid_stream,
        "live": live,
        "finished": finished,
        "restarted": restarted,
        "before": before,
        "after": after,
    }


class TestFinishedJobStreams:
    def test_stream_is_byte_identical_live_finished_and_restarted(self, finished_job):
        assert finished_job["state_mid_stream"] == "running"
        live = finished_job["live"]
        assert live == finished_job["finished"] == finished_job["restarted"]
        lines = [json.loads(line) for line in live.splitlines()]
        assert [line["type"] for line in lines] == ["trial"] * 3 + ["end"]
        assert lines[-1]["state"] == "completed" and lines[-1]["n_trials"] == 3
        assert lines[-1]["fingerprint"] == finished_job["before"]["fingerprint"]

    def test_completed_job_keeps_n_trials_done_across_restart(self, finished_job):
        before, after = finished_job["before"], finished_job["after"]
        assert before["state"] == after["state"] == "completed"
        assert before["n_trials_done"] == after["n_trials_done"] == 3
        assert after["fingerprint"] == before["fingerprint"]

    def test_midrun_streamer_continues_from_the_archive(self, tmp_path, monkeypatch):
        gate = park_after_first_row(monkeypatch)
        service = CampaignService(str(tmp_path / "state"), max_concurrent=1)
        service.start()
        try:
            job = service.submit(OPEN_TENANT, THREE_TRIALS)
            rows = service.trial_rows(job)
            first = next(rows)  # from the in-memory feed
            assert job.state == "running"
            gate.set()
            wait_until(lambda: job.terminal, message="job never finished")
            # the feed is gone, so the rest can only come from result.json
            assert job.trials_after(0, timeout=0.0) is None
            streamed = [first, *rows]
        finally:
            gate.set()
            service.drain(grace_s=10.0)
        assert job.state == "completed"
        assert [row["trial_id"] for row in streamed] == [1, 2, 3]
        assert streamed == service.result_for(job)["trials"]

    def test_streamers_racing_the_release_see_every_row_once(self, tmp_path):
        """Stress the hand-off from the in-memory feed to the archive:
        streamers started before, during and after the commits lose and
        repeat no row, whenever the terminal mark lands."""
        service = CampaignService(str(tmp_path / "state"))
        job = Job(id="job-race", tenant=OPEN_TENANT, spec={})
        job.mark("running")
        rows = [{"trial_id": index} for index in range(1, 301)]
        received: list[list[dict]] = [[] for _ in range(6)]
        readers = [
            threading.Thread(target=lambda into=into: into.extend(service.trial_rows(job)))
            for into in received
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for index, row in enumerate(rows):
                if index % 60 == 0:
                    readers[index // 60].start()
                job.append_trial(row)
            readers[5].start()
            # what _complete does: archive the rows, then mark the job
            with open(os.path.join(service.state_dir, f"{job.id}.result.json"), "w") as out:
                json.dump({"trials": rows}, out)
            job.mark("completed")
            for reader in readers:
                reader.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert all(got == rows for got in received)

    def test_failed_job_streams_its_journal_after_restart(self, tmp_path, monkeypatch):
        from repro.paper import airdrop_parameter_space

        committed = 2
        monkeypatch.setattr(
            "repro.serve.server.make_explorer",
            lambda name, trials, seed: _GivesOutExplorer(
                airdrop_parameter_space(), committed, n_trials=trials, seed=seed
            ),
        )
        state = str(tmp_path / "state")
        server = CampaignServer(CampaignService(state, max_concurrent=1), port=0)
        server.start()
        port = server.address[1]
        try:
            status, posted = request(port, "POST", "/campaigns", None, THREE_TRIALS)
            assert status == 202, posted
            job_id = posted["id"]
            snap = wait_for_state(port, None, job_id, ("completed", "failed"))
            before = stream_trials(port, job_id)
        finally:
            server.drain(grace_s=10.0)
        assert snap["state"] == "failed" and "gave out" in snap["error"]
        assert snap["n_trials_done"] == committed

        server2 = CampaignServer(CampaignService(state, max_concurrent=1), port=0)
        assert server2.start() == 0  # a failed job is not re-run
        try:
            after = stream_trials(server2.address[1], job_id)
            status, snap2 = request(server2.address[1], "GET", f"/campaigns/{job_id}")
        finally:
            server2.drain(grace_s=10.0)
        assert after == before
        lines = [json.loads(line) for line in after.splitlines()]
        assert [line["type"] for line in lines] == ["trial"] * committed + ["end"]
        assert lines[-1] == {
            "type": "end", "state": "failed", "n_trials": committed, "fingerprint": None
        }
        assert "checkpoints" not in lines[0]  # journal-only keys are stripped
        assert snap2["state"] == "failed" and snap2["n_trials_done"] == committed

    def test_terminal_jobs_hold_no_trial_rows(self, tmp_path):
        service = CampaignService(str(tmp_path / "state"), max_concurrent=2)
        service.start()
        try:
            # cached: the trials are trained once and then replayed
            jobs = [
                service.submit(OPEN_TENANT, {**FAST_SPEC, "cache": True})
                for _ in range(4)
            ]
            wait_until(
                lambda: all(job.terminal for job in jobs),
                timeout=120.0,
                message="jobs never finished",
            )
        finally:
            service.drain(grace_s=10.0)
        assert [job.state for job in jobs] == ["completed"] * 4
        for job in jobs:
            assert job._trial_rows is None  # only the status record is left
            assert job.n_trials_done == 2


class TestDurableWrites:
    def test_job_and_result_files_are_fsynced_before_their_rename(self, tmp_path, monkeypatch):
        events: list[tuple[str, int, str]] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino, ""))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        service = CampaignService(str(tmp_path / "state"))
        service.start()
        try:
            job = service.submit(OPEN_TENANT, FAST_SPEC)
            wait_until(lambda: job.terminal, timeout=120.0, message="job never finished")
        finally:
            service.drain(grace_s=10.0)
        assert job.state == "completed"
        prefix = os.path.join(service.state_dir, f"{job.id}.")
        synced: set[int] = set()
        renamed = set()
        for kind, inode, target in list(events):
            if kind == "fsync":
                synced.add(inode)
            elif target.startswith(prefix):
                assert inode in synced, f"{target} replaced before its data was fsynced"
                synced.discard(inode)
                renamed.add(target[len(prefix) :])
        assert renamed == {"job.json", "result.json"}


# ----------------------------------------------------------- support hooks
class TestSupportHooks:
    def test_resume_or_fresh_is_idempotent(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        fresh = CampaignJournal.resume_or_fresh(path)
        assert fresh.n_recorded == 0
        fresh.close()
        again = CampaignJournal.resume_or_fresh(path)  # now resumes
        assert again.n_recorded == 0
        again.close()

    def test_meter_registry_merge_snapshot(self):
        source = MeterRegistry()
        source.counter("jobs").inc(3)
        source.gauge("depth").set(7.0)
        target = MeterRegistry()
        target.counter("jobs").inc(1)
        target.merge_snapshot(source.snapshot())
        merged = target.snapshot()
        assert merged["counters"]["jobs"] == 4
        assert merged["gauges"]["depth"] == 7.0

    def test_campaign_stop_predicate_interrupts_cleanly(self):
        from repro.paper import Scale, table1_campaign

        deadline = time.monotonic() + 2.0
        report = table1_campaign(
            seed=0, scale=Scale(real_steps=40)
        ).run(stop=lambda: time.monotonic() > deadline)
        assert report.meta.get("interrupted") is True
        assert 1 <= len(report.table) < 18

"""The benchmark's workloads: Table I on three execution paths, and a
warm-cache ``repro serve``.

Each workload has ``setup()`` (everything ``setup_s`` covers), a timed
part, and ``close()``; :mod:`run` drives them. Every check here compares
outputs with each other — no fingerprint value is stored.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import subprocess
import sys
import threading
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: real env steps per trial: above ``SACConfig.learning_starts`` (1000),
#: so every SAC trial of the campaign runs ``SACAgent.update``
TABLE1_STEPS = 1100
#: steps of the spec the serve clients resubmit; every warm trial is a
#: cache read, so the budget only sets how long the cold fill takes
SERVE_STEPS = 200
#: Table I rows the warm-up campaign runs: one SAC, one PPO
WARMUP_ROWS = (1, 2)


def steady_malloc() -> None:
    """Pin glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold after a large block is freed, so a later
    large ``np.zeros`` (SAC's 100k-row replay buffer, 18 MB) may come from
    reused heap memory that calloc must clear, which makes all of it
    resident, or from fresh zero pages that stay untouched. Which one
    happens varies from run to run: the peak RSS of one campaign read 48
    or 68 MB. Setting the threshold also stops the adjustment.
    """
    import ctypes

    try:
        ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass  # not glibc: no adaptive threshold to pin


def warm_up(seed: int, n_envs: int) -> None:
    """Lazy imports and first-call costs: a two-row Table I campaign."""
    from repro.paper import Scale, Table1Explorer, airdrop_parameter_space, table1_campaign

    explorer = Table1Explorer(airdrop_parameter_space())
    explorer._rows = list(WARMUP_ROWS)  # the rows it replays, in order
    report = table1_campaign(
        seed=seed, scale=Scale(real_steps=TABLE1_STEPS), n_envs=n_envs, explorer=explorer
    ).run()
    if not all(t.ok for t in report.table):
        raise RuntimeError("warm-up campaign had failed trials")


class Checks:
    """Attempted and failed operations, with the reason of each failure.
    Both serve clients record here, so updates take a lock."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        return ok


# ------------------------------------------------------------------ Table I


class _KeepFleet:
    """The fleet's executor, minus the shutdown ``Campaign.run`` ends with,
    so one set of workers serves every campaign of a run."""

    def __init__(self, executor: Any) -> None:
        self._executor = executor

    def __getattr__(self, name: str) -> Any:
        return getattr(self._executor, name)

    def __enter__(self) -> "_KeepFleet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


class Fleet:
    """A ``RemoteExecutor`` on 127.0.0.1 with two worker processes started
    from ``perfbench/worker.py`` and a shared HMAC secret. Each worker
    warms up before it connects (see :func:`warm_up`)."""

    def __init__(self, workdir: str, traced: bool, seed: int) -> None:
        import secrets

        from repro.net import RemoteExecutor

        secret = secrets.token_hex(16)
        self.executor = RemoteExecutor(max_workers=2, secret=secret, heartbeat_timeout=30.0)
        host, port = self.executor.address
        env = dict(os.environ, REPRO_NET_SECRET=secret)
        self.totals_paths: list[str] = []
        self.procs: list[subprocess.Popen[bytes]] = []
        for i in range(2):
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--warm-up-seed", str(seed)]
            if traced:
                path = os.path.join(workdir, f"worker-{port}-{i}.json")
                self.totals_paths.append(path)
                cmd += ["--totals", path]
            cmd += ["--", "--connect", f"{host}:{port}", "--no-cache"]
            with open(os.path.join(workdir, f"worker-{port}-{i}.log"), "wb") as log:
                self.procs.append(
                    subprocess.Popen(
                        cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log
                    )
                )
        try:
            self.executor.wait_for_workers(2, timeout=60.0)
        except BaseException:
            self.close()
            raise

    @property
    def campaign_executor(self) -> _KeepFleet:
        return _KeepFleet(self.executor)

    def close(self) -> list[dict[str, list[float]]]:
        """Shut the fleet down; returns each traced worker's layer totals."""
        self.executor.shutdown()
        for proc in self.procs:
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15.0)
        totals = []
        for path in self.totals_paths:
            with open(path, encoding="utf-8") as handle:
                totals.append(json.load(handle))
        return totals


class Table1:
    """The 18-row Table I campaign, cold (no cache, no journal).

    ``remote=True`` runs its trials on a :class:`Fleet`; otherwise they
    run in this process at ``n_envs``.
    """

    def __init__(self, seed: int, n_envs: int, remote: bool, workdir: str) -> None:
        self.seed = seed
        self.n_envs = n_envs
        self.remote = remote
        self.workdir = workdir
        self.fleet: Fleet | None = None
        self.checks = Checks()
        self.fingerprints: set[str] = set()
        self.trial_s = 0.0
        self.retries = 0

    def setup(self) -> None:
        from repro.core.serialization import table_fingerprint

        # bound here, before any wrapper is installed, so the benchmark's
        # own fingerprinting is never counted as a ``core`` call
        self._fingerprint = table_fingerprint
        if self.remote:
            self.start_fleet(traced=False)
        else:
            warm_up(self.seed, self.n_envs)

    def start_fleet(self, traced: bool) -> None:
        self.fleet = Fleet(self.workdir, traced, self.seed)

    def stop_fleet(self) -> list[dict[str, list[float]]]:
        fleet, self.fleet = self.fleet, None
        return fleet.close() if fleet is not None else []

    def campaign(self, telemetry: Any = None, remote: bool | None = None) -> Any:
        from repro.paper import Scale, table1_campaign

        remote = self.remote if remote is None else remote
        kwargs: dict[str, Any] = {}
        if remote:
            kwargs["executor"] = self.fleet.campaign_executor
        return table1_campaign(
            seed=self.seed,
            scale=Scale(real_steps=TABLE1_STEPS),
            n_envs=self.n_envs,
            telemetry=telemetry,
            **kwargs,
        )

    def unit(self, telemetry: Any = None) -> float:
        """One timed campaign: ``Campaign.run()`` call -> report returned."""
        campaign = self.campaign(telemetry=telemetry)
        t0 = time.perf_counter()
        report = campaign.run()
        elapsed = time.perf_counter() - t0
        for trial in report.table:
            self.checks.check(trial.ok, f"trial {trial.trial_id} is {trial.status}")
            self.trial_s += trial.duration_s
        self.checks.check(len(report.table) == 18, f"{len(report.table)} of 18 trials")
        self.retries += int(report.meta.get("n_retried", 0))
        self.fingerprints.add(self._fingerprint(report.table))
        return elapsed

    def check_fingerprints(self) -> None:
        """Every campaign of the run agrees; over the loopback fleet the
        table also equals the in-process ``n_envs`` campaign's."""
        self.checks.check(
            len(self.fingerprints) == 1,
            f"{len(self.fingerprints)} distinct table fingerprints in one run",
        )
        if self.remote:
            report = self.campaign(remote=False).run()
            self.checks.check(
                {self._fingerprint(report.table)} == self.fingerprints,
                "loopback table differs from the in-process table",
            )

    def close(self) -> None:
        self.stop_fleet()


# -------------------------------------------------------------------- serve


class Serve:
    """An in-process ``CampaignServer`` with two tenants, two runner slots
    and a cache filled by one cold submission."""

    TOKENS = ("perfbench-tenant-a", "perfbench-tenant-b")

    def __init__(self, seed: int, workdir: str) -> None:
        self.spec = {"explorer": "table1", "steps": SERVE_STEPS, "seed": seed, "n_envs": 8}
        self.workdir = workdir
        self.checks = Checks()
        self.server: Any = None
        self.cold: dict[str, Any] = {}

    def setup(self) -> None:
        import tempfile

        from repro.serve import CampaignServer, CampaignService, TokenAuth

        service = CampaignService(
            tempfile.mkdtemp(prefix="serve-", dir=self.workdir),
            auth=TokenAuth(self.TOKENS),
            max_concurrent=2,
        )
        self.server = CampaignServer(service, host="127.0.0.1", port=0)
        self.server.start()
        sample = self.submit(self.TOKENS[0], reference=False)
        if not sample["ok"]:
            raise RuntimeError(f"cold fill failed: {self.checks.failures}")
        self.cold = {"fingerprint": sample["fingerprint"], "fronts": sample["fronts"]}

    def _request(
        self, method: str, path: str, token: str, body: dict[str, Any] | None = None
    ) -> tuple[int, bytes]:
        host, port = self.server.address
        conn = http.client.HTTPConnection(host, port, timeout=60.0)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Authorization": f"Bearer {token}"}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def submit(self, token: str, reference: bool = True) -> dict[str, Any]:
        """One closed-loop iteration: submit, stream the trials to the end
        record, read the job's timestamps and its Pareto fronts."""
        check = self.checks.check
        t0 = time.perf_counter()
        status, body = self._request("POST", "/campaigns", token, self.spec)
        post_s = time.perf_counter() - t0
        if not check(status == 202, f"POST /campaigns -> {status}"):
            return {"ok": False}
        job_id = json.loads(body)["id"]
        status, body = self._request("GET", f"/campaigns/{job_id}/trials", token)
        latency = time.perf_counter() - t0
        received_at = time.time()
        ok = check(status == 200, f"GET trials -> {status}")
        lines = [json.loads(line) for line in body.splitlines() if line.strip()]
        end = lines[-1] if lines else {}
        rows = [line for line in lines if line.get("type") == "trial"]
        ok &= check(
            end.get("type") == "end" and end.get("state") == "completed",
            f"job {job_id} ended {end.get('state')}",
        )
        ok &= check(
            len(rows) == 18 and all(r.get("status") == "completed" for r in rows),
            f"job {job_id} streamed {len(rows)} trials, not 18 completed",
        )
        status, body = self._request("GET", f"/campaigns/{job_id}", token)
        ok &= check(status == 200, f"GET job -> {status}")
        job = json.loads(body) if status == 200 else {}
        status, body = self._request("GET", f"/campaigns/{job_id}/pareto", token)
        ok &= check(status == 200, f"GET pareto -> {status}")
        fronts = json.loads(body).get("fronts") if status == 200 else None
        if reference:
            ok &= check(
                end.get("fingerprint") == self.cold["fingerprint"]
                and fronts == self.cold["fronts"],
                f"warm job {job_id} differs from the cold fill",
            )
        started = job.get("started_at") or 0.0
        finished = job.get("finished_at") or 0.0
        return {
            "ok": bool(ok),
            "latency_s": latency,
            "post_s": post_s,
            "queue_wait_s": started - (job.get("submitted_at") or 0.0),
            "run_s": finished - started,
            "stream_tail_s": received_at - finished,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "fingerprint": end.get("fingerprint"),
            "fronts": fronts,
        }

    def window(self, seconds: float) -> tuple[list[dict[str, Any]], float]:
        """Both tenants resubmit in closed loops for ``seconds``; returns
        the samples and the window's wall time."""
        samples: list[dict[str, Any]] = []
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds
        errors: list[BaseException] = []

        def client(token: str) -> None:
            try:
                while time.perf_counter() < deadline:
                    sample = self.submit(token)
                    with lock:
                        samples.append(sample)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in self.TOKENS]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        for exc in errors:
            self.checks.check(False, f"client error: {exc!r}")
        return [s for s in samples if "latency_s" in s], wall

    def close(self) -> None:
        if self.server is not None:
            self.server.drain(grace_s=10.0)
            self.server = None

"""The serve daemon: simulations as production traffic.

A stdlib-only asyncio HTTP/1.1 server (hand-rolled framing — no new
dependencies) exposing the run surface behind the versioned wire API:

==============================  =============================================
endpoint                        behaviour
==============================  =============================================
``POST /v1/run``                one scenario, synchronous: responds with the
                                ``repro.api.result/v1`` run document —
                                byte-identical to local :func:`repro.api.run`
``POST /v1/sweep``              a batch: ``202`` + job id (``?wait=1`` blocks)
``POST /v1/plan``               auto-planner job: ``202`` + job id (same)
``GET  /v1/jobs/<id>``          job status document (result embedded when done)
``GET  /v1/jobs/<id>/events``   NDJSON flight-recorder stream (``?follow=0``
                                dumps and closes instead of tailing)
``GET  /healthz``               liveness + queue depth
``GET  /metrics``               Prometheus exposition of the serve registry
==============================  =============================================

Requests carry ``repro.api.request/v1`` documents (a bare canonical
scenario is also accepted on ``/v1/run``); the tenant comes from the
``X-Tenant`` header.  Admission control is the multi-tenant
:class:`repro.serve.queue.JobQueue` (per-tenant quotas, fair dequeue,
bounded backlog — rejections are ``429``).  Execution rides the existing
:func:`repro.api.sweep` / :func:`repro.api.plan` stack on runner threads,
against one shared warm :class:`repro.exec.ResultCache`, with a per-job
flight-recorder event log under the spool directory — so journaling,
chaos tolerance, and determinism carry over unchanged, and the events
endpoint is just ``repro tail`` over the wire.

Inline executions (``sweep_jobs <= 1``) are serialized across runner
threads: the executor reseeds the *process-global* RNGs per scenario, and
two concurrent inline simulations in one process could interleave those
seeds.  Worker-pool executions (``sweep_jobs > 1``) reseed inside their
own worker processes and may overlap freely.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import secrets
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.schema import (
    REQUEST_SCHEMA,
    SchemaError,
    build_request,
    validate_request,
)
from repro.serve.queue import Job, JobQueue, QueueRejection

#: request-latency buckets (seconds): sub-millisecond cache hits through
#: multi-second executed sweeps.
LATENCY_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0, 60.0)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Everything the daemon needs, as pure data (the CLI fills this)."""

    host: str = "127.0.0.1"
    port: int = 8321  #: 0 = ephemeral (read the bound port from port_file)
    workers: int = 2  #: runner threads pulling jobs off the queue
    sweep_jobs: int = 1  #: ``jobs=`` handed to repro.api.sweep per job
    cache_dir: Optional[str] = None  #: shared ResultCache root (None = default)
    spool_dir: Optional[str] = None  #: job event logs (None = <cache>/serve)
    max_backlog: int = 64
    tenant_quota: int = 16
    default_tenant: str = "anonymous"
    port_file: Optional[str] = None  #: written with the bound port once up
    drain_timeout: float = 30.0  #: seconds to finish queued work on SIGTERM
    request_timeout: float = 600.0  #: cap on synchronous (?wait) requests


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 retry_after: Optional[int] = None) -> None:
        self.status = status
        self.message = message
        self.retry_after = retry_after
        super().__init__(message)


class SimulationService:
    """The daemon's engine room: queue, runner threads, metrics, cache."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        from repro.exec.cache import ResultCache
        from repro.obs.ledger import now_iso
        from repro.obs.registry import MetricsRegistry

        self.config = config or ServeConfig()
        self.cache = ResultCache(self.config.cache_dir)
        self.spool = Path(
            self.config.spool_dir
            if self.config.spool_dir is not None
            else self.cache.root / "serve"
        )
        self.queue = JobQueue(
            max_backlog=self.config.max_backlog,
            tenant_quota=self.config.tenant_quota,
        )
        self.jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_seq = itertools.count(1)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self.draining = threading.Event()
        #: see module docstring — inline executions must not overlap
        self._inline_lock = threading.Lock()
        self.started_iso = now_iso()
        self._t0 = time.time()
        self._shed = 0
        self._active = 0

        registry = MetricsRegistry()
        self.registry = registry
        self.m_requests = registry.counter(
            "serve_requests_total", "HTTP requests by endpoint and status")
        self.m_latency = registry.histogram(
            "serve_request_seconds", "request latency by endpoint",
            buckets=LATENCY_BUCKETS)
        self.m_jobs = registry.counter(
            "serve_jobs_total", "jobs by tenant, kind, and outcome")
        self.m_scenarios = registry.counter(
            "serve_scenarios_total", "scenario cells served per tenant")
        self.m_cache_hits = registry.counter(
            "serve_cache_hits_total", "warm-cache hits served per tenant")
        self.m_cache_misses = registry.counter(
            "serve_cache_misses_total", "cold cells executed per tenant")
        self.m_shed = registry.counter(
            "serve_shed_total", "submissions rejected 429 by tenant and reason")
        self.m_queue_depth = registry.gauge(
            "serve_queue_depth", "jobs queued (all tenants)")
        self.m_active = registry.gauge(
            "serve_active_jobs", "jobs executing right now")
        self.m_hit_rate = registry.gauge(
            "serve_cache_hit_rate", "service-lifetime warm-cache hit fraction")
        self._hits_total = 0
        self._exec_total = 0

    # ------------------------------------------------------------------ #
    # job lifecycle
    # ------------------------------------------------------------------ #

    def submit(self, kind: str, scenarios: Sequence[object],
               options: Mapping[str, object], tenant: str) -> Job:
        """Admit one validated request as a job (raises
        :class:`repro.serve.queue.QueueRejection` when shed)."""
        from repro.obs.ledger import now_iso

        if self.draining.is_set():
            raise _HttpError(503, "service is draining; not accepting jobs")
        job_id = f"j{next(self._job_seq):05d}-{secrets.token_hex(4)}"
        events_path = ""
        if kind in ("run", "sweep"):
            self.spool.joinpath("jobs").mkdir(parents=True, exist_ok=True)
            events_path = str(self.spool / "jobs" / f"{job_id}.events.jsonl")
        job = Job(
            id=job_id,
            tenant=tenant,
            kind=kind,
            scenarios=list(scenarios),
            options=dict(options),
            priority=int(options.get("priority", 0)),
            submitted=now_iso(),
            events_path=events_path,
        )
        with self._jobs_lock:
            self.jobs[job_id] = job
        try:
            self.queue.submit(job)
        except QueueRejection:
            with self._jobs_lock:
                del self.jobs[job_id]
            self._shed += 1
            raise
        self.m_queue_depth.set(self.queue.depth())
        return job

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self.jobs.get(job_id)

    def start_workers(self) -> None:
        for index in range(max(1, self.config.workers)):
            thread = threading.Thread(
                target=self._runner, name=f"serve-runner-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _runner(self) -> None:
        while not self._stop.is_set():
            job = self.queue.take(timeout=0.2)
            if job is None:
                if self.queue.closed:
                    return
                continue
            self.m_queue_depth.set(self.queue.depth())
            self._execute(job)

    def _execute(self, job: Job) -> None:
        import repro.api as api
        from repro.obs.ledger import now_iso

        job.state = "running"
        job.started = now_iso()
        with self._jobs_lock:
            self._active += 1
            self.m_active.set(self._active)
        inline = self.config.sweep_jobs <= 1
        guard = self._inline_lock if inline else contextlib.nullcontext()
        try:
            with guard:
                if job.kind == "plan":
                    result = api.plan(
                        job.scenarios[0],
                        budget=int(job.options.get("budget", 32)),
                        top_k=int(job.options.get("top_k", 4)),
                        fidelity=str(job.options.get("fidelity", "auto")),
                        jobs=max(1, self.config.sweep_jobs),
                        cache=self.cache,
                    )
                    job.document = result.to_document()
                else:
                    outcome = api.sweep(
                        job.scenarios,
                        jobs=max(1, self.config.sweep_jobs),
                        cache=self.cache,
                        on_error="collect",
                        events=job.events_path,
                        progress=False,
                        fidelity=job.options.get("fidelity"),  # type: ignore[arg-type]
                    )
                    if job.kind == "run":
                        result = outcome.results[0]
                        if result is None:
                            failure = outcome.failures[0]
                            raise RuntimeError(failure.describe())
                        job.document = result.to_document()
                    else:
                        job.document = outcome.to_document()
            state = "done"
        except BaseException as exc:  # runner threads must never die silently
            state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            job.finished = now_iso()
            with self._jobs_lock:
                self._active -= 1
                self.m_active.set(self._active)
            self._account(job, state)
            # publish the terminal state only once the stats are filled, so
            # a poller never sees a finished job with empty stats
            job.state = state
            job.done_event.set()

    def _account(self, job: Job, state: str) -> None:
        """Reduce the job's flight-recorder log into per-tenant counters —
        the ``repro tail`` reducer, pointed at one job's event file;
        ``state`` is the job's terminal state, not yet published."""
        from repro.obs.flight import CampaignState, read_events

        stats = {"total": 0, "executed": 0, "cache_hits": 0,
                 "journal_replayed": 0, "failed": 0, "retries": 0}
        if job.events_path and os.path.exists(job.events_path):
            campaign = CampaignState()
            for record in read_events(job.events_path):
                campaign.feed(record)
            stats.update(
                total=campaign.total, executed=campaign.executed,
                cache_hits=campaign.cache_hits,
                journal_replayed=campaign.journal_replayed,
                failed=campaign.failed, retries=campaign.retries,
            )
        job.stats = stats
        tenant = job.tenant
        if stats["cache_hits"]:
            self.m_cache_hits.inc(stats["cache_hits"], tenant=tenant)
        if stats["executed"]:
            self.m_cache_misses.inc(stats["executed"], tenant=tenant)
        if stats["total"]:
            self.m_scenarios.inc(stats["total"], tenant=tenant)
        self._hits_total += stats["cache_hits"]
        self._exec_total += stats["executed"]
        served = self._hits_total + self._exec_total
        if served:
            self.m_hit_rate.set(self._hits_total / served)
        self.m_jobs.inc(tenant=tenant, kind=job.kind, outcome=state)

    # ------------------------------------------------------------------ #
    # drain / shutdown
    # ------------------------------------------------------------------ #

    def drain(self, timeout: Optional[float] = None) -> str:
        """Stop admitting, finish queued work (bounded), stop the runner
        threads, and record the service run in the cross-run ledger.
        Returns the ledger outcome (``ok`` | ``partial``)."""
        from repro.obs.ledger import record_run

        timeout = self.config.drain_timeout if timeout is None else timeout
        self.draining.set()
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.queue.depth() == 0 and self._active == 0:
                break
            time.sleep(0.05)
        self.queue.close()
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.time()) + 1.0)
        with self._jobs_lock:
            unfinished = sum(
                1 for job in self.jobs.values()
                if job.state in ("queued", "running")
            )
            counts = {
                "jobs": len(self.jobs),
                "done": sum(1 for j in self.jobs.values() if j.state == "done"),
                "failed": sum(1 for j in self.jobs.values() if j.state == "failed"),
                "shed": self._shed,
                "cache_hits": self._hits_total,
                "executed": self._exec_total,
            }
        outcome = "ok" if unfinished == 0 else "partial"
        record_run(
            "serve",
            started=self.started_iso,
            wall_seconds=time.time() - self._t0,
            outcome=outcome,
            counts=counts,
            summary={"tenants": sorted({j.tenant for j in self.jobs.values()})},
            ledger=self.cache.root / "ledger.jsonl",
        )
        return outcome

    # ------------------------------------------------------------------ #
    # HTTP layer
    # ------------------------------------------------------------------ #

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        start = time.perf_counter()
        endpoint = "malformed"
        status = 500
        streamed = False
        try:
            method, path, query, headers, body = await _read_request(reader)
            endpoint, handler_status = self._route_name(method, path), 200
            status, streamed = await self._dispatch(
                method, path, query, headers, body, writer)
        except _HttpError as exc:
            status = exc.status
            extra: List[Tuple[str, str]] = []
            if exc.retry_after is not None:
                extra.append(("Retry-After", str(exc.retry_after)))
            _write_response(
                writer, exc.status,
                _json_bytes({"error": {"status": exc.status,
                                       "message": exc.message}}),
                extra_headers=extra,
            )
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # defensive: one bad request != dead daemon
            status = 500
            with contextlib.suppress(Exception):
                _write_response(
                    writer, 500,
                    _json_bytes({"error": {"status": 500,
                                           "message": f"{type(exc).__name__}: {exc}"}}),
                )
        finally:
            self.m_requests.inc(endpoint=endpoint, status=str(status))
            self.m_latency.observe(time.perf_counter() - start,
                                   endpoint=endpoint)
            with contextlib.suppress(Exception):
                await writer.drain()
                writer.close()
                await writer.wait_closed()

    def _route_name(self, method: str, path: str) -> str:
        if path.startswith("/v1/jobs/"):
            return ("/v1/jobs/<id>/events" if path.endswith("/events")
                    else "/v1/jobs/<id>")
        return path

    async def _dispatch(self, method: str, path: str, query: Dict[str, str],
                        headers: Mapping[str, str], body: bytes,
                        writer: asyncio.StreamWriter) -> Tuple[int, bool]:
        tenant = headers.get("x-tenant", "").strip() or self.config.default_tenant
        if path == "/healthz" and method == "GET":
            _write_response(writer, 200, _json_bytes({
                "ok": True,
                "draining": self.draining.is_set(),
                "queue_depth": self.queue.depth(),
                "active_jobs": self._active,
                "jobs": len(self.jobs),
                "started": self.started_iso,
            }))
            return 200, False
        if path == "/metrics" and method == "GET":
            self.m_queue_depth.set(self.queue.depth())
            _write_response(writer, 200,
                            self.registry.to_prometheus().encode("utf-8"),
                            content_type="text/plain; version=0.0.4")
            return 200, False
        if path in ("/v1/run", "/v1/sweep", "/v1/plan"):
            if method != "POST":
                raise _HttpError(405, f"{path} takes POST")
            return await self._handle_submit(path[4:], query, body, tenant,
                                             writer)
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                job = self._job_or_404(rest[:-len("/events")])
                follow = query.get("follow", "1") not in ("0", "false")
                await self._stream_events(writer, job, follow)
                return 200, True
            job = self._job_or_404(rest)
            _write_response(writer, 200, _json_bytes(job.status_document()))
            return 200, False
        raise _HttpError(404, f"no route for {method} {path}")

    def _job_or_404(self, job_id: str) -> Job:
        job = self.get_job(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return job

    async def _handle_submit(self, kind: str, query: Dict[str, str],
                             body: bytes, tenant: str,
                             writer: asyncio.StreamWriter) -> Tuple[int, bool]:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if isinstance(doc, Mapping) and "schema" not in doc and kind == "run":
            # convenience: a bare canonical Scenario on /v1/run
            doc = build_request("run", [doc])
        try:
            req_kind, scenarios, options = validate_request(doc)
        except SchemaError as exc:
            raise _HttpError(400, str(exc))
        if req_kind != kind:
            raise _HttpError(
                400, f"request kind {req_kind!r} does not match /v1/{kind}")
        try:
            job = self.submit(kind, scenarios, options, tenant)
        except QueueRejection as exc:
            self.m_shed.inc(tenant=tenant, reason=type(exc).__name__)
            raise _HttpError(429, str(exc), retry_after=1)
        wait = kind == "run" or query.get("wait", "0") in ("1", "true")
        if not wait:
            _write_response(writer, 202, _json_bytes({
                "id": job.id,
                "state": job.state,
                "status": f"/v1/jobs/{job.id}",
                "events": f"/v1/jobs/{job.id}/events",
            }))
            return 202, False
        await self._await_job(job)
        if job.state == "failed":
            raise _HttpError(500, f"job {job.id} failed: {job.error}")
        if kind == "run":
            # the acceptance surface: the bare result/v1 document,
            # byte-identical to a local repro.api.run
            _write_response(writer, 200, _json_bytes(job.document),
                            extra_headers=[("X-Job-Id", job.id)])
        else:
            _write_response(writer, 200, _json_bytes(job.status_document()))
        return 200, False

    async def _await_job(self, job: Job) -> None:
        deadline = time.time() + self.config.request_timeout
        while not job.done_event.is_set():
            if time.time() > deadline:
                raise _HttpError(
                    500, f"job {job.id} exceeded request_timeout "
                         f"({self.config.request_timeout:.0f}s); poll "
                         f"/v1/jobs/{job.id}")
            await asyncio.sleep(0.02)

    async def _stream_events(self, writer: asyncio.StreamWriter, job: Job,
                             follow: bool) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        offset = 0
        pending = b""
        while True:
            finished = job.done_event.is_set()
            if job.events_path and os.path.exists(job.events_path):
                with open(job.events_path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
                if chunk:
                    offset += len(chunk)
                    pending += chunk
                    lines = pending.split(b"\n")
                    pending = lines.pop()  # partial final line, if any
                    out = b"".join(line + b"\n" for line in lines if line.strip())
                    if out:
                        writer.write(out)
                        await writer.drain()
            if finished or not follow:
                break
            await asyncio.sleep(0.1)


# ---------------------------------------------------------------------- #
# HTTP plumbing
# ---------------------------------------------------------------------- #


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], Dict[str, str], bytes]:
    try:
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=30)
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
            asyncio.TimeoutError) as exc:
        raise _HttpError(400, f"malformed request head: {type(exc).__name__}")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "bad Content-Length")
    body = b""
    if length:
        try:
            body = await asyncio.wait_for(reader.readexactly(length), timeout=60)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            raise _HttpError(400, "request body truncated")
    path, _, query_str = target.partition("?")
    query = dict(urllib.parse.parse_qsl(query_str))
    return method.upper(), path, query, headers, body


def _json_bytes(doc: object) -> bytes:
    return json.dumps(doc, sort_keys=True, allow_nan=False).encode("utf-8")


def _write_response(writer: asyncio.StreamWriter, status: int, body: bytes,
                    content_type: str = "application/json",
                    extra_headers: Sequence[Tuple[str, str]] = ()) -> None:
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
    )
    for key, value in extra_headers:
        head += f"{key}: {value}\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)


# ---------------------------------------------------------------------- #
# running the daemon
# ---------------------------------------------------------------------- #


async def serve_async(service: SimulationService,
                      stop: Optional[asyncio.Event] = None) -> None:
    """Bind, serve until ``stop`` (or SIGTERM/SIGINT), drain, exit."""
    config = service.config
    server = await asyncio.start_server(service.handle, config.host, config.port)
    port = server.sockets[0].getsockname()[1]
    if config.port_file:
        Path(config.port_file).write_text(f"{port}\n")
    service.start_workers()
    if stop is None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
    print(f"repro serve: listening on http://{config.host}:{port} "
          f"(cache {service.cache.root}, {config.workers} runner(s), "
          f"backlog {config.max_backlog}, quota {config.tenant_quota}/tenant)",
          flush=True)
    async with server:
        await stop.wait()
    print("repro serve: draining...", flush=True)
    outcome = await asyncio.get_running_loop().run_in_executor(
        None, service.drain)
    print(f"repro serve: drained ({outcome}); bye", flush=True)


def run_server(config: ServeConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    service = SimulationService(config)
    asyncio.run(serve_async(service))
    return 0


# ---------------------------------------------------------------------- #
# in-process service (tests, examples, bench)
# ---------------------------------------------------------------------- #


class ServiceHandle:
    """An in-process daemon: real sockets, background event loop."""

    def __init__(self, service: SimulationService, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, server: asyncio.AbstractServer,
                 port: int) -> None:
        self.service = service
        self.loop = loop
        self.thread = thread
        self.server = server
        self.port = port
        self.url = f"http://{service.config.host}:{port}"

    def stop(self, drain_timeout: Optional[float] = None) -> str:
        outcome = self.service.drain(drain_timeout)
        self.loop.call_soon_threadsafe(self.server.close)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        if not self.loop.is_running():
            self.loop.close()
        return outcome

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_process(config: Optional[ServeConfig] = None) -> ServiceHandle:
    """Boot the daemon on a background thread (ephemeral port by default)
    and return a :class:`ServiceHandle` whose ``.url`` a
    :class:`repro.client.ServeClient` can point at."""
    config = config or ServeConfig(port=0)
    service = SimulationService(config)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box: Dict[str, object] = {}

    def _main() -> None:
        asyncio.set_event_loop(loop)

        async def _boot() -> None:
            server = await asyncio.start_server(
                service.handle, config.host, config.port)
            box["server"] = server
            box["port"] = server.sockets[0].getsockname()[1]
            ready.set()

        loop.run_until_complete(_boot())
        loop.run_forever()

    thread = threading.Thread(target=_main, name="serve-loop", daemon=True)
    thread.start()
    if not ready.wait(timeout=10):
        raise RuntimeError("in-process serve loop failed to boot")
    service.start_workers()
    port = int(box["port"])  # type: ignore[arg-type]
    if config.port_file:
        Path(config.port_file).write_text(f"{port}\n")
    return ServiceHandle(service, loop, thread, box["server"], port)  # type: ignore[arg-type]


__all__ = [
    "LATENCY_BUCKETS",
    "REQUEST_SCHEMA",
    "ServeConfig",
    "ServiceHandle",
    "SimulationService",
    "run_server",
    "serve_async",
    "start_in_process",
]

"""The ``serve-warm`` workload: a real ``repro serve`` daemon under two
closed-loop clients whose requests all hit the daemon's warm cache.

The daemon is a subprocess booted through the ``--port 0 --port-file``
handshake.  Latencies under load stay in raw seconds: a reference kernel
run in this process, which is busy sending, does not track the daemon's
host speed.  ``/metrics`` and
``/proc/<pid>`` are scraped before and after the load for the per-layer
split, and the daemon is stopped with SIGTERM and must exit 0.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from stats import percentile, tail_percentile
from tracer import Tracer
from workloads import Run, document_bytes

#: daemon boots per run; ``setup_s`` is the median boot-and-warm time
BOOTS = 3
#: closed-loop client threads, one tenant each
CLIENTS = 2
#: seconds to wait for the port file, a reply, or a drain
BOOT_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0

_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def hit_set() -> List[object]:
    """The served scenarios: 4 NIC environments x 2 sizes x 2 groups."""
    from repro.bench.runner import case_scenario

    return [case_scenario(env, nodes, group)
            for env in ("ib", "roce", "ethernet", "hybrid")
            for nodes in (2, 4)
            for group in (1, 3)]


def parse_metrics(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Prometheus exposition text as ``{(name, labels): value}``."""
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if not match:
            continue
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, key)] = float(value)
    return samples


def metric_sum(samples, name: str, **labels: str) -> float:
    """Sum of ``name`` over every label set that includes ``labels``."""
    want = set(labels.items())
    return sum(value for (n, key), value in samples.items()
               if n == name and want <= set(key))


class Daemon:
    """One ``repro serve`` subprocess and its wire client factory."""

    def __init__(self, root: Path, work: Path, index: int) -> None:
        self.dir = work / f"serve-{index}"
        self.dir.mkdir(parents=True)
        port_file = self.dir / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(self.dir / "cache")
        self.log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--cache", str(self.dir / "cache"),
             "--workers", "2"],
            cwd=self.dir, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        try:
            port = self._await_port(port_file)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise
        self.url = f"http://127.0.0.1:{port}"

    def _await_port(self, port_file: Path) -> int:
        deadline = time.perf_counter() + BOOT_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve daemon exited {self.proc.returncode} during boot")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve daemon did not write its port file")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.005)

    def client(self, tenant: str):
        from repro.client import ServeClient

        return ServeClient(self.url, tenant=tenant, timeout=BOOT_TIMEOUT)

    def scrape(self) -> Dict[str, float]:
        """Counters from ``/metrics`` plus CPU seconds and peak RSS from
        ``/proc``."""
        samples = parse_metrics(self.client("bench-scrape").metrics())
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        hwm_kb = 0.0
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                hwm_kb = float(line.split()[1])
        return {
            "run_sum": metric_sum(samples, "serve_request_seconds_sum",
                                  endpoint="/v1/run"),
            "run_count": metric_sum(samples, "serve_request_seconds_count",
                                    endpoint="/v1/run"),
            "shed": metric_sum(samples, "serve_shed_total"),
            "hits": metric_sum(samples, "serve_cache_hits_total"),
            "misses": metric_sum(samples, "serve_cache_misses_total"),
            "cpu_s": ticks / os.sysconf("SC_CLK_TCK"),
            "hwm_mb": hwm_kb / 1024.0,
        }

    def stop(self) -> Optional[int]:
        """SIGTERM, wait for the drain; returns the exit code (``None``
        if it had to be killed)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return None
        finally:
            self.log.close()


def _warm(run: Run, daemon: Daemon, cells, expected: List[bytes]) -> None:
    client = daemon.client("bench-warm")
    for cell, want in zip(cells, expected):
        run.attempted += 1
        doc = client.run_document(cell)
        if json.dumps(doc, sort_keys=True).encode("utf-8") != want:
            run.fail(1, f"warm-up document differs: {cell.label}")


def _stop(run: Run, daemon: Daemon) -> None:
    run.attempted += 1
    code = daemon.stop()
    if code != 0:
        run.fail(1, f"serve daemon exited {code} after SIGTERM")


class _Tally:
    """One client thread's own results, merged when it ends."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.latencies: List[float] = []
        self.problems: List[str] = []
        self.attempted = 0


class _Load:
    """Closed-loop clients: each sends its next request when the previous
    reply arrives."""

    def __init__(self, run: Run, daemon: Daemon, cells,
                 expected: List[bytes], traced: bool) -> None:
        self.run = run
        self.daemon = daemon
        self.cells = cells
        self.expected = expected
        self.traced = traced
        self.latencies: List[float] = []
        self.tracers: List[Tracer] = []
        self.attempted = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def _client(self, index: int, deadline: float) -> None:
        tally = _Tally(Tracer() if self.traced else None)
        try:
            self._loop(index, deadline, tally)
        except Exception:  # a dead client thread must still report
            tally.problems.append(
                f"client {index} crashed:\n{traceback.format_exc()}")
        with self._lock:
            self.latencies.extend(tally.latencies)
            self.attempted += tally.attempted
            self.problems.extend(tally.problems)
            if tally.tracer is not None:
                self.tracers.append(tally.tracer)

    def _loop(self, index: int, deadline: float, tally: "_Tally") -> None:
        from repro.client import ServeClientError

        client = self.daemon.client(f"bench-{index}")
        rng = random.Random(f"{self.run.seed}:{index}")
        tracer = tally.tracer
        while time.perf_counter() < deadline:
            i = rng.randrange(len(self.cells))
            tally.attempted += 1
            frame = None
            if tracer is not None:
                tracer.request = f"client{index}:{tally.attempted}"
                frame = tracer.enter("client.run", True)
            start = time.perf_counter()
            try:
                doc = client.run_document(self.cells[i])
            except ServeClientError as exc:
                tally.problems.append(f"HTTP {exc.status}: {exc}")
                continue
            except OSError as exc:
                tally.problems.append(f"connection failed: {exc}")
                continue
            finally:
                if frame is not None:
                    tracer.exit(frame)
            tally.latencies.append(time.perf_counter() - start)
            if json.dumps(doc, sort_keys=True).encode("utf-8") != self.expected[i]:
                tally.problems.append(
                    f"served document differs: {self.cells[i].label}")

    def go(self, seconds: float) -> float:
        """Run the clients for ``seconds``; returns the elapsed wall time."""
        start = time.perf_counter()
        deadline = start + seconds
        threads = [threading.Thread(target=self._client, args=(i, deadline))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        self.run.attempted += self.attempted
        for problem in self.problems:
            self.run.fail(1, problem)
        return elapsed


def serve_warm(run: Run, root: Path) -> None:
    import repro.api as api

    cells = hit_set()
    local = [api.run(cell) for cell in cells]
    run.check_golden({f"serve/{c.label}": r for c, r in zip(cells, local)})
    expected = [document_bytes(r) for r in local]
    def boot(index: int) -> Daemon:
        daemon = Daemon(root, run.work, index)
        try:
            _warm(run, daemon, cells, expected)
        except BaseException:
            daemon.stop()
            raise
        return daemon

    # Set-up is timed between reference runs in this process, which is
    # idle meanwhile: raw boot times drifted 42% between sets of runs.
    normalized: List[float] = []
    raw: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for index in range(1 if run.trace else BOOTS):
            if daemon is not None:
                _stop(run, daemon)
                daemon = None
            n, r, daemon = run.norm.measure(lambda: boot(index))
            normalized.append(n)
            raw.append(r)
        run.metrics["setup_s"] = statistics.median(normalized)
        run.diagnostics["bench.raw.setup_s"] = statistics.median(raw)

        if run.trace:
            untraced = _Load(run, daemon, cells, expected, traced=False)
            untraced.go(run.seconds / 2)
        before = daemon.scrape()
        load = _Load(run, daemon, cells, expected, traced=run.trace)
        elapsed = load.go(run.seconds / 2 if run.trace else run.seconds)
        after = daemon.scrape()
    finally:
        if daemon is not None:
            _stop(run, daemon)

    lat = load.latencies
    if not lat:
        run.fail(1, "no request completed")
        return
    requests = after["run_count"] - before["run_count"]
    server_s = (after["run_sum"] - before["run_sum"]) / requests if requests else 0.0
    mean = sum(lat) / len(lat)
    if run.trace:
        run.metrics.update({
            "serve.server_s": server_s,
            "serve.cpu_per_req_s":
                (after["cpu_s"] - before["cpu_s"]) / requests if requests else 0.0,
            "serve.cache_hit_ratio": _ratio(after["hits"] - before["hits"],
                                            after["misses"] - before["misses"]),
            "serve.shed": after["shed"] - before["shed"],
            "client.overhead_s": mean - server_s,
            "bench.trace_overhead":
                mean - sum(untraced.latencies) / max(1, len(untraced.latencies)),
        })
        for index, tracer in enumerate(load.tracers):
            tracer.write(run.out / f"spans-serve-warm-seed{run.seed}-client{index}.jsonl")
        return
    pct, p_tail, beyond = tail_percentile(lat, 99.0)
    run.metrics.update({
        "serve_p50_s": percentile(lat, 50.0),
        "serve_mean_s": mean,
        "peak_rss_mb": after["hwm_mb"],
    })
    run.diagnostics.update({
        "samples.serve": len(lat),
        "serve_p90_s": percentile(lat, 90.0),
        "serve_tail_s": p_tail,
        "serve_tail_s.percentile": pct,
        "serve_tail_s.samples_beyond": beyond,
        "serve_rps": len(lat) / elapsed,
        "serve.server_s": server_s,
    })


def _ratio(useful: float, wasted: float) -> float:
    total = useful + wasted
    return useful / total if total else 0.0

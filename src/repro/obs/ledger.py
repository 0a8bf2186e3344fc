"""Cross-run persistence: the run ledger and the BENCH trend view.

The flight recorder (:mod:`repro.obs.flight`) narrates *one* campaign;
this module remembers *every* campaign:

- :class:`RunLedger` — an append-only JSONL index of sweep / bench /
  validate runs (one :class:`RunRecord` per line: kind, wall time, sweep
  digest, code salt, outcome counts, headline summary).  Lives at
  ``<cache-dir>/ledger.jsonl`` by default, uses the same single-``write``
  append and corrupt-line-tolerant read discipline as the sweep journal,
  and backs the ``repro runs`` CLI.
- **BENCH trend** — :func:`load_bench_history` / :func:`bench_trend` read
  every committed ``results/BENCH_*.json`` document (``repro.bench/v1``,
  written by ``repro bench``), line the headline series up by date, and
  :func:`render_trend` / :func:`trend_regressions` turn them into the
  ``repro report --trend`` view and its CI soft gate.  Direction matters:
  normalized costs regress *upward*, TFLOPS regress *downward*.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Ledger record format tag; bump on layout changes (old lines are skipped).
SCHEMA = "repro.obs.ledger/v1"

#: The BENCH document schema the trend view reads.
BENCH_SCHEMA = "repro.bench/v1"

#: Sparkline glyphs, low to high.
_SPARKS = "▁▂▃▄▅▆▇█"


def default_ledger_path() -> Path:
    from repro.exec.cache import default_cache_dir

    return default_cache_dir() / "ledger.jsonl"


@dataclass(frozen=True)
class RunRecord:
    """One indexed run.  ``counts`` carries the executor outcome tallies
    (executed / cache_hits / journal_replayed / quarantined / retries);
    ``summary`` carries kind-specific headlines (e.g. a bench run's
    ``normalized_cell_cost``)."""

    kind: str  #: "sweep" | "bench" | "validate"
    started: str  #: ISO-8601 local wall-clock start
    wall_seconds: float
    outcome: str  #: "ok" | "partial" | "failed" | "interrupted"
    sweep_digest: str = ""
    code_salt: str = ""
    counts: Mapping[str, int] = field(default_factory=dict)
    summary: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"schema": SCHEMA}
        for f in fields(self):
            value = getattr(self, f.name)
            record[f.name] = dict(value) if isinstance(value, Mapping) else value
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        digest = f" {self.sweep_digest[:12]}" if self.sweep_digest else ""
        done = self.counts.get("executed", 0)
        extras = []
        for key, label in (
            ("cache_hits", "cached"),
            ("journal_replayed", "replayed"),
            ("quarantined", "failed"),
        ):
            if self.counts.get(key):
                extras.append(f"{self.counts[key]} {label}")
        extra = f" ({', '.join(extras)})" if extras else ""
        fidelity = str(self.summary.get("fidelity", "") or "")
        tier = f" <{fidelity}>" if fidelity and fidelity != "executed" else ""
        return (
            f"{self.started}  {self.kind:<8s} {self.outcome:<11s} "
            f"{self.wall_seconds:8.2f}s  {done} run{tier}{extra}{digest}"
        )


class RunLedger:
    """Append-only, corruption-tolerant JSONL run index."""

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()
        #: lines skipped by the last :meth:`records` call
        self.corrupt_lines = 0

    def append(self, record: RunRecord) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True, allow_nan=False) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
        except OSError:  # the ledger is bookkeeping, never a failure mode
            pass

    def records(self) -> List[RunRecord]:
        self.corrupt_lines = 0
        out: List[RunRecord] = []
        try:
            raw = self.path.read_text()
        except OSError:
            return out
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                self.corrupt_lines += 1
                continue
            if not isinstance(data, dict) or data.get("schema") != SCHEMA:
                self.corrupt_lines += 1
                continue
            try:
                out.append(RunRecord.from_dict(data))
            except TypeError:
                self.corrupt_lines += 1
        return out

    def tail(self, n: int) -> List[RunRecord]:
        return self.records()[-n:]


def record_run(
    kind: str,
    *,
    started: str,
    wall_seconds: float,
    outcome: str,
    sweep_digest: str = "",
    counts: Optional[Mapping[str, int]] = None,
    summary: Optional[Mapping[str, object]] = None,
    ledger: Union[RunLedger, str, Path, None] = None,
) -> RunRecord:
    """Build and append one :class:`RunRecord` (convenience wrapper used
    by the executor and the CLI).  ``ledger`` may be a :class:`RunLedger`,
    a path, or ``None`` for the default location."""
    from repro.exec.digest import CODE_VERSION_SALT

    record = RunRecord(
        kind=kind,
        started=started,
        wall_seconds=round(wall_seconds, 6),
        outcome=outcome,
        sweep_digest=sweep_digest,
        code_salt=CODE_VERSION_SALT,
        counts=dict(counts or {}),
        summary=dict(summary or {}),
    )
    if not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    ledger.append(record)
    return record


def now_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


# --------------------------------------------------------------------- #
# BENCH trend: cross-run regression view over committed documents
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TrendSeries:
    """One headline metric across committed BENCH documents."""

    name: str
    higher_is_better: bool
    points: Tuple[Tuple[str, float], ...]  #: ((date-or-filename, value), ...)

    def latest(self) -> float:
        return self.points[-1][1]

    def previous(self) -> Optional[float]:
        return self.points[-2][1] if len(self.points) >= 2 else None

    def delta_fraction(self) -> Optional[float]:
        """Relative change of latest vs previous (signed; None without a
        previous point or with a zero previous value)."""
        prev = self.previous()
        if prev is None or prev == 0:
            return None
        return (self.latest() - prev) / abs(prev)

    def sparkline(self) -> str:
        values = [v for _, v in self.points]
        lo, hi = min(values), max(values)
        if hi == lo:
            return _SPARKS[3] * len(values)
        span = hi - lo
        return "".join(
            _SPARKS[int((v - lo) / span * (len(_SPARKS) - 1))] for v in values
        )


def load_bench_history(
    root: Union[str, Path],
) -> List[Tuple[str, Dict[str, object]]]:
    """Every parseable ``BENCH_*.json`` under ``root``, as
    ``(filename, document)`` sorted by (date, filename) so the trend axis
    is chronological even when several documents share a date."""
    docs: List[Tuple[str, Dict[str, object]]] = []
    try:
        paths = sorted(Path(root).glob("BENCH_*.json"))
    except OSError:
        return docs
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and doc.get("schema") == BENCH_SCHEMA:
            docs.append((path.name, doc))
    docs.sort(key=lambda item: (str(item[1].get("date", "")), item[0]))
    return docs


def _doc_series(doc: Mapping[str, object]) -> Dict[str, Tuple[float, bool]]:
    """name -> (value, higher_is_better) for one document's headlines.
    The sweep cost is keyed by the sweep's name (``table3``,
    ``table3-fast``, ...): a per-cell cost only compares over one grid."""
    out: Dict[str, Tuple[float, bool]] = {}
    sweep = doc.get("sweep")
    if isinstance(sweep, Mapping):
        cost = sweep.get("normalized_cell_cost")
        if isinstance(cost, (int, float)):
            grid = f"[{sweep['name']}]" if sweep.get("name") else ""
            out[f"sweep.normalized_cell_cost{grid}"] = (float(cost), False)
    micro = doc.get("microbench")
    if isinstance(micro, Mapping):
        benches = micro.get("benchmarks", {})
        if isinstance(benches, Mapping):
            for name, bench in benches.items():
                if isinstance(bench, Mapping) and isinstance(
                    bench.get("normalized"), (int, float)
                ):
                    out[f"micro.{name}"] = (float(bench["normalized"]), False)
    cases = doc.get("cases")
    if isinstance(cases, Mapping):
        for name, case in cases.items():
            if isinstance(case, Mapping) and isinstance(
                case.get("tflops_per_gpu"), (int, float)
            ):
                out[f"tflops.{name}"] = (float(case["tflops_per_gpu"]), True)
    return out


def bench_trend(
    docs: Sequence[Tuple[str, Mapping[str, object]]],
) -> List[TrendSeries]:
    """Line every headline series up across documents (documents missing a
    series simply contribute no point to it)."""
    points: Dict[str, List[Tuple[str, float]]] = {}
    directions: Dict[str, bool] = {}
    for filename, doc in docs:
        label = str(doc.get("date") or filename)
        for name, (value, higher) in _doc_series(doc).items():
            points.setdefault(name, []).append((label, value))
            directions[name] = higher
    return [
        TrendSeries(
            name=name,
            higher_is_better=directions[name],
            points=tuple(series),
        )
        for name, series in sorted(points.items())
    ]


def trend_regressions(
    trend: Sequence[TrendSeries], tolerance: float = 0.10
) -> List[str]:
    """Human-readable regression lines: the latest point moved the wrong
    way by more than ``tolerance`` relative to the previous point.  Empty
    means the soft gate passes."""
    failures = []
    for series in trend:
        delta = series.delta_fraction()
        if delta is None:
            continue
        regressed = delta < -tolerance if series.higher_is_better else delta > tolerance
        if regressed:
            failures.append(
                f"{series.name}: {series.previous():.4g} -> "
                f"{series.latest():.4g} ({delta:+.1%}, tolerance "
                f"{tolerance:.0%}, {'higher' if series.higher_is_better else 'lower'}"
                "-is-better)"
            )
    return failures


def render_trend(trend: Sequence[TrendSeries]) -> str:
    """The ``repro report --trend`` table: one row per series with first
    and latest values, the latest relative move, and a sparkline."""
    if not trend:
        return "no BENCH documents found"
    name_width = max(len(s.name) for s in trend)
    lines = [
        f"{'series':<{name_width}}  pts  first      latest     Δ latest  trend"
    ]
    for series in trend:
        delta = series.delta_fraction()
        if delta is None:
            move = "     -"
        else:
            bad = (
                delta < 0 if series.higher_is_better else delta > 0
            ) and abs(delta) > 1e-12
            move = f"{delta:+6.1%}" + ("!" if bad else "")
        lines.append(
            f"{series.name:<{name_width}}  {len(series.points):>3d}  "
            f"{series.points[0][1]:<9.4g}  {series.latest():<9.4g}  "
            f"{move:<9s} {series.sparkline()}"
        )
    first_dates = trend[0].points
    lines.append(
        f"\n{len(first_dates)}+ documents spanning "
        f"{first_dates[0][0]} .. {first_dates[-1][0]} "
        "('!' marks a move in the regressing direction)"
    )
    return "\n".join(lines)


__all__ = [
    "BENCH_SCHEMA",
    "RunLedger",
    "RunRecord",
    "SCHEMA",
    "TrendSeries",
    "bench_trend",
    "default_ledger_path",
    "load_bench_history",
    "now_iso",
    "record_run",
    "render_trend",
    "trend_regressions",
]

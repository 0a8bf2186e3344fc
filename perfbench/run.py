"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that prints the per-layer split (see
``spec.py`` for both lists).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds diagnostics: raw seconds, reference-kernel times, sample counts.
Scratch files live under ``.perfbench-work/`` and are removed at exit;
traced spans are written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from workloads import Run, ladder, table3  # noqa: E402


def _serve_warm(run: Run) -> None:
    from serve_warm import serve_warm

    serve_warm(run, ROOT)


WORKLOADS = {"table3": table3, "ladder": ladder, "serve-warm": _serve_warm}


def result_line(run: Run, workload: str) -> Dict[str, object]:
    """The final JSON object: exactly the end-to-end metrics (untraced)
    or exactly the per-layer metrics (traced)."""
    metrics = {}
    if run.trace:
        for m in spec.PER_LAYER:
            value = run.metrics.get(m.name, run.diagnostics.get(m.name, 0.0))
            metrics[m.name] = {"value": value, "unit": m.unit}
    else:
        sources = spec.SOURCES[workload]
        for m in spec.END_TO_END:
            value = run.metrics[sources.get(m.name, m.name)]
            metrics[m.name] = {"value": value, "unit": m.unit}
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    # the program's default cache, journal and ledger all land in scratch
    os.environ["REPRO_CACHE_DIR"] = str(work / "repro-cache")
    golden = json.loads((HERE / "golden.json").read_text())
    run = Run(args.seed, args.seconds, bool(args.trace), work,
              ROOT / ".perfbench-out", golden)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()
    run.finish()

    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    diagnostics = dict(sorted(run.metrics.items()))
    diagnostics.update(sorted(run.diagnostics.items()))
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps(result_line(run, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

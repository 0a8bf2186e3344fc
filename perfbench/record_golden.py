"""Regenerate ``golden.json``: the pinned simulated statistics of every
scenario the benchmark runs.

Run from the root of a checkout whose simulated behaviour is the intended
reference::

    python3 perfbench/record_golden.py

A golden mismatch in a benchmark run means simulated behaviour changed;
re-record only when that change is deliberate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from serve_warm import hit_set  # noqa: E402
from stats import golden_stats  # noqa: E402
from workloads import build_inputs  # noqa: E402


def main() -> int:
    import repro.api as api

    scenarios = {f"table3/{c.label}": c for c in build_inputs("table3", 0)}
    scenarios.update({f"ladder/{s.label}": s
                      for s in build_inputs("ladder", 0).values()})
    scenarios.update({f"serve/{c.label}": c for c in hit_set()})
    golden = {key: golden_stats(api.run(s))
              for key, s in sorted(scenarios.items())}
    (HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())

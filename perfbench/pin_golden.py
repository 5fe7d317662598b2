"""Pin the golden references of the simulation workloads.

    python3 perfbench/pin_golden.py

Runs ``hexagon_learn`` and ``static_oracle`` at the default seed, refuses
to pin a run that fails its seed-independent checks, and writes
``perfbench/golden/<workload>.json``.  Re-pin only for a change that is
meant to alter the trajectories, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import OUT_ROOT, SRC

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402


def write_golden(path, record: dict) -> None:
    """One JSON object with one trace row per line, so diffs stay readable."""
    head = {k: v for k, v in record.items() if k != "rows"}
    rows = ",\n".join(json.dumps(row) for row in record["rows"])
    body = json.dumps(head, indent=1, sort_keys=True)[:-2]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{body},\n "rows": [\n{rows}\n]}}\n')


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in ("hexagon_learn", "static_oracle"):
        workload = workloads.WORKLOADS[name]
        ctx = workload.setup(workloads.DEFAULT_SEED)
        outcome = workload.run(ctx, OUT_ROOT / f"pin-{name}", Speedometer())
        failures, _, _ = workload.check(ctx, outcome, golden=False)
        if failures:
            print(f"{name}: not pinned: {failures}", file=sys.stderr)
            return 1
        header, rows = workloads.read_trace(outcome.facts["trace_path"])
        write_golden(workloads.golden_path(name),
                     workloads.golden_record(ctx, header, rows))
        print(f"pinned {workloads.golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

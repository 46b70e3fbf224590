"""Self-check of the benchmark, with the shortest runs it allows.

    python3 bench/selfcheck.py

Run from the repository root.  For every workload in BENCHMARK.json it
asserts that one untimed-length run prints every end-to-end metric by
name and unit and is correct on HELD_OUT_SEED, a seed not used while the
benchmark was written, and that two traced runs on SEED give identical
work counters.  It takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
HELD_OUT_SEED = 1009


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counters = [name for name, unit in per_layer.items() if unit == "count"]
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, HELD_OUT_SEED, 0)
        if units(plain) != end_to_end:
            raise AssertionError(f"{workload}: end-to-end metrics {units(plain)}")
        if not plain["correct"]:
            raise AssertionError(f"{workload}: incorrect on seed {HELD_OUT_SEED}")
        first, second = run(workload, SEED, 1), run(workload, SEED, 1)
        for traced in (first, second):
            if units(traced) != per_layer:
                raise AssertionError(f"{workload}: per-layer metrics {units(traced)}")
        a = {name: first["metrics"][name]["value"] for name in counters}
        b = {name: second["metrics"][name]["value"] for name in counters}
        if a != b:
            diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
            raise AssertionError(f"{workload}: work counters differ between traced runs: {diff}")
        print(f"{workload}: {len(end_to_end)} end-to-end metrics, "
              f"{len(counters)} work counters repeat, seed {HELD_OUT_SEED} correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())

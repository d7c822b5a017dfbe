"""Smoke test of the benchmark: every workload at toy size.

Run from the repository root:

    python3 bench/smoke.py

For each workload it runs ``run.py`` untraced at the default seed (so the
toy golden digests are checked) and at the held-out seed, then runs the
traced mode once.  It checks the shape of the result line and that every
metric named in ``BENCHMARK.json`` is printed, with the declared unit and
nothing else.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("matching", "ballsbins", "coloring", "closure-stats")


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "toy",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    if result["correct"] is not True or not (
        isinstance(result["attempted"], int) and result["attempted"] >= 1
        and isinstance(result["failed"], int)
    ):
        sys.exit(f"FAIL {workload}: bad result header {result}")
    return result["metrics"]


def check(metrics: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit(f"FAIL {what}: missing {missing}, undeclared {extra}, wrong unit {units}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            sys.exit(f"FAIL {what}: {name} is not a number")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        sys.exit(f"FAIL: BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for workload in WORKLOADS:
        for seed in (1, 2):  # the default seed and the held-out seed
            check(run(workload, seed, 0), spec["end_to_end"], f"{workload} seed {seed}")
            print(f"ok {workload} seed {seed}")
    check(run(WORKLOADS[0], 1, 1), spec["per_layer"], "traced run")
    print("ok traced run")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()

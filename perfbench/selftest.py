#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about a minute).

Run from the repository root: ``python3 perfbench/selftest.py``.

Checks that ``BENCHMARK.json`` declares exactly the workloads and metrics
``run.py`` and ``metrics.py`` define (same units, same better direction),
that every workload, untraced and traced, prints a result line carrying
every declared metric with its unit, correct and without failures, and
that ``run.py`` refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = Path(".")) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, defined in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if declared != [d[:3] for d in defined]:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")

    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {m['name']} missing or malformed: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
            print(f"ok  {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked operations")

    with tempfile.TemporaryDirectory(dir=".") as bare:
        proc = run("plan-cold", 0, cwd=Path(bare))
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py did not refuse a directory without the sources")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

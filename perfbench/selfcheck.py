"""Quick self-check of the benchmark (about ten seconds).

Usage: python3 perfbench/selfcheck.py

For each workload it runs the smallest size rung, untraced and traced, and
asserts that every metric BENCHMARK.json names is emitted, with its unit and
a finite value.  It then plants a wrong expected answer and asserts that
wrong_frac counts every cell and the run is marked incorrect.  Last, it
asserts that a copy holding only BENCHMARK.json and the benchmark's files
exits non-zero without printing a result.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run


def check_metrics(rep: dict, declared: list, label: str) -> None:
    got = rep["metrics"]
    names = [m["name"] for m in declared]
    assert sorted(got) == sorted(names), f"{label}: emitted {sorted(got)}, declared {sorted(names)}"
    for m in declared:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{label}: {m['name']} unit {value['unit']} != {m['unit']}"
        assert isinstance(value["value"], float) and math.isfinite(value["value"]), (label, m["name"])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    run.prepare()
    import workloads

    for name in run.NAMES:
        cells = workloads.WORKLOADS[name].smallest()
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            rep = run.measure(name, seed=1, seconds=0.0, trace=trace, cells=cells, setup_samples=1)
            check_metrics(rep, declared, f"{name} trace={int(trace)}")
            assert rep["correct"], (name, rep["failures"])
        print(f"ok   {name}: {len(cells)} smallest-rung cells, all declared metrics emitted")

    honest = workloads.majority_answer
    workloads.majority_answer = lambda p: 1 - honest(p)
    try:
        cells = workloads.WORKLOADS["qsp-reduce"].smallest()
        rep = run.measure("qsp-reduce", seed=1, seconds=0.0, trace=False, cells=cells, setup_samples=1)
    finally:
        workloads.majority_answer = honest
    assert rep["summary"]["wrong_frac"] == 1.0, rep["summary"]
    assert rep["metrics"]["honest_frac"]["value"] == 0.0
    assert not rep["correct"] and rep["failed"] == rep["attempted"]
    print("ok   planted wrong answer: wrong_frac = 1, run marked incorrect")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "vote-circuit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   benchmark-only copy exits", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One set-up sample, in a fresh interpreter: import the library and the CLI,
then generate the workload's first-pass inputs from the seed.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints one JSON object: {"import_s": ..., "setup_s": ...}.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import transduce_lab  # noqa: E402,F401
import transduce_lab.cli  # noqa: E402,F401

T1 = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].pass_inputs(int(sys.argv[2]), 0)
T2 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "setup_s": T2 - T0}))

"""Time ptstab's import plus one workload's one-time setup in a fresh interpreter.

Usage: python3 perfbench/setup_child.py <workload> <inputs.json>
Prints one JSON line {"import_s": ..., "setup_s": ...}; setup_s includes import_s.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ptstab.cli  # noqa: E402,F401  (the import a `ptstab` command pays)

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402  (the benchmark's own code, not timed)

inputs = json.loads(Path(sys.argv[2]).read_text())
t2 = time.perf_counter()
WORKLOADS[sys.argv[1]].setup(inputs)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))

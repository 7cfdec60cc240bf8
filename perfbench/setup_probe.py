"""Times one benchmark set-up in a fresh process: import ionflow, make the inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED full|tiny

prints the seconds taken. ``run.py`` starts it several times per run.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ionflow  # noqa: E402,F401  (importing is part of set-up)
from workloads import make_programs  # noqa: E402

make_programs(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "tiny")
print(time.perf_counter() - t0)

"""Time one set-up in a fresh interpreter: everything before the first sweep.

Usage: python3 setup_probe.py SRC_DIR total|joint CSV_PATH
       python3 setup_probe.py SRC_DIR sbc COUNTRIES YEARS SEED

Prints the seconds from before ``import landmix`` to the end of
``initial_state``: the package import, then either the CSV parse and
``Dataset`` build (``load_landings``) or the simulation of one SBC panel.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import landmix.cli  # noqa: E402,F401  (the import a `landmix` command pays)
from landmix.data import load_landings, simulate_dataset  # noqa: E402
from landmix.sampler import initial_state  # noqa: E402
from workloads import REFERENCE_TOTAL_TRUTH  # noqa: E402

kind = sys.argv[2]
if kind == "sbc":
    countries, years, seed = (int(a) for a in sys.argv[3:6])
    data, _ = simulate_dataset("total", REFERENCE_TOTAL_TRUTH, countries, years, seed=seed)
    initial_state("total", data)
else:
    initial_state(kind, load_landings(sys.argv[3], kind))
print(repr(time.perf_counter() - t0))

"""Set-up probe: a fresh interpreter imports ggkdv and builds the spectrum
tables of one workload's ladder, then prints the in-process times as JSON.

    python3 perfbench/probe_setup.py WORKLOAD

``run.py`` starts several of these per run and times each one whole.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import ggkdv  # noqa: E402
imported = time.perf_counter()

from ggkdv import spectral  # noqa: E402
from common import LADDERS  # noqa: E402

if not Path(ggkdv.__file__).resolve().is_relative_to(
        Path(__file__).resolve().parent.parent / "src"):
    raise SystemExit(f"ggkdv imported from {ggkdv.__file__}, not the checkout")
for preset, N in LADDERS[sys.argv[1]]:
    spectral.spectrum_table(spectral.PRESETS[preset], N)
print(json.dumps({"import_s": imported - start,
                  "tables_s": time.perf_counter() - imported}))

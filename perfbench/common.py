"""Workload names, the (preset, N) spectrum-table ladder each one needs,
and the environment every benchmark process gets.

Standard library only: the entry script and the set-up probe read this
without importing numpy.
"""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("steer", "observe", "stabilize", "cli")

LADDERS = {
    "steer": [(p, N) for N in (6, 16, 32, 64) for p in ("generic", "resonant")],
    "observe": [(p, N) for N in (6, 16, 32, 64, 128)
                for p in ("generic", "resonant")],
    "stabilize": [(p, N) for N in (6, 16, 32) for p in ("generic", "resonant")],
    # the tables behind the CLI invocations at their default sizes, plus
    # observe at N=48 and the resonant ill-conditioned control at N=16
    "cli": [("generic", 6), ("generic", 8), ("generic", 12), ("generic", 48),
            ("generic", 200), ("resonant", 16)],
}


def checkout_env() -> dict:
    """The inherited environment with the checkout's sources first on the
    import path; BLAS thread settings pass through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env

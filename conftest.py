"""Loaded by pytest before any test module of either test path.

Importing ggkdv first lets its one-thread OpenBLAS default act before
numpy loads, so the suite runs under the same BLAS policy as the CLI.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

import ggkdv  # noqa: E402,F401


def pytest_configure(config):
    # a complex array cast to float silently drops its imaginary part; the
    # real-basis paths of observe, HUM and stabilize must never do that.
    # Registered here, not in pyproject.toml, where resolving the class
    # would import numpy before ggkdv sets its BLAS thread default.
    config.addinivalue_line("filterwarnings",
                            "error::numpy.exceptions.ComplexWarning")

"""Loaded by pytest before any test module of either test path.

Importing ggkdv first lets its one-thread OpenBLAS default act before
numpy loads, so the suite runs under the same BLAS policy as the CLI.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

import ggkdv  # noqa: E402,F401

"""Importing ggkdv keeps OpenBLAS at one thread unless the user set a count,
so results do not depend on the machine's core count."""

import ctypes
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ggkdv

SRC = str(Path(ggkdv.__file__).resolve().parents[1])


def run_python(*args, threads=None, cwd=None):
    """Run Python with ``OPENBLAS_NUM_THREADS`` unset, or set to ``threads``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=120)


def threads_after_import(threads):
    proc = run_python("-c", "import os, ggkdv; "
                      "print(os.environ['OPENBLAS_NUM_THREADS'])",
                      threads=threads)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_defaults_to_one_thread():
    assert threads_after_import(None) == "1"


def test_user_thread_count_kept():
    assert threads_after_import("2") == "2"


def test_observe_bytes_independent_of_default(tmp_path):
    # alpha at this window is ~7e-12 of beta: a second thread moved it in
    # the 5th digit
    config = tmp_path / "observe.json"
    config.write_text(json.dumps({"N": 48, "window_length": 0.5}))
    written = []
    for label, threads in (("unset", None), ("one", "1")):
        proc = run_python("-m", "ggkdv.cli", "observe", "--preset", "generic",
                          "--config", str(config), "--out",
                          str(tmp_path / label), "--quiet", threads=threads,
                          cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        written.append((tmp_path / label / "observability.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("package, symbol", [
    ("numpy", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy_openblas_get_num_threads"),
])
def test_suite_runs_one_blas_thread(package, symbol):
    # reads the thread count of the OpenBLAS the package bundles; the root
    # conftest imports ggkdv before any test module loads numpy or scipy
    module = importlib.import_module(package + ".linalg")
    libs = Path(module.__file__).resolve().parents[2] / f"{package}.libs"
    for path in sorted(libs.glob("*openblas*")):
        get_num_threads = getattr(ctypes.CDLL(str(path)), symbol, None)
        if get_num_threads is not None:
            get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
            assert get_num_threads() == 1
            return
    pytest.skip(f"no {symbol} in {package}'s bundled libraries")

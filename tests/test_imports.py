"""scipy stays out of the import of ggkdv and out of every command: it is
a test oracle only.  The package's public names are pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ggkdv

SRC = str(Path(ggkdv.__file__).resolve().parents[1])


def run_python(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=120)


# the public names: every name ``import ggkdv`` leaves without a leading
# underscore, less the submodules, which ``from ggkdv import *`` must not
# bind
PUBLIC_API = [
    "AliasError", "Branch", "ConstraintViolation", "ControlPlan",
    "DecayReport", "EpsilonUnderflow", "ExponentialSignal",
    "FeedbackGains", "GapReport", "GramianSingular", "GridFunction",
    "HumSystem", "IllConditioned", "ModalState", "ObservationWindow",
    "PRESETS", "PhysicalParams", "SpectrumTable", "assemble_lambda",
    "bilinear_pairing", "closed_loop_simulate", "control_cost",
    "critical_time", "divided_difference_constants", "duality_residual",
    "energy", "evolve", "feedback_gains", "forced_evolve", "gap_report",
    "h_norm", "ingham_report", "observability_constants", "project",
    "reachable_defect", "reconstruct", "resonance_check", "solve_control",
    "spectrum_table", "symbol_matrix", "trace", "trace_amplitudes",
    "u_mean", "v_mean", "verify_roundtrip", "zero_gains",
]


def test_public_api_is_pinned():
    # a name added to or removed from the package shows up as a diff here
    assert sorted(ggkdv.__all__) == PUBLIC_API


def test_import_leaves_scipy_out():
    proc = run_python("-c", "import sys, ggkdv; "
                      "print(sorted(m for m in sys.modules if m == 'scipy' "
                      "or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# one output file of each command
OUTPUTS = {"spectrum": "spectrum.csv", "gaps": "gaps.csv",
           "resonance": "resonance.csv", "observe": "observability.csv",
           "ingham": "ingham.csv", "control": "plan.json",
           "stabilize": "decay.csv", "duality": "duality.csv"}


@pytest.mark.parametrize("command", OUTPUTS)
def test_command_runs_without_scipy(tmp_path, command):
    # -X importtime lists every module the process imports on stderr
    proc = run_python("-X", "importtime", "-m", "ggkdv.cli", command,
                      "--preset", "generic", "--out", str(tmp_path),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / OUTPUTS[command]).exists()
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "ggkdv.stabilize" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    # numpy.ma costs about 9 ms of import; np.unique loads it
    assert "numpy.ma" not in imported

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggkdv import cli
from ggkdv.errors import GGKdVError
from ggkdv.cli import main

# child processes import ggkdv from this checkout, however pytest found it
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def run_cli(tmp_path, name, *args, config=None):
    argv = [name, "--out", str(tmp_path)]
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    argv += list(args)
    return main(argv)


class TestSpectrum:
    def test_row_count_and_k0(self, tmp_path):
        assert run_cli(tmp_path, "spectrum", config={"preset": "generic", "N": 4}) == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "k,branch,omega,z1_re,z1_im,z2_re,z2_im"
        assert len(lines) - 1 == 2 * (2 * 4 + 1)
        k0 = [ln for ln in lines[1:] if ln.startswith("0,")]
        assert len(k0) == 2
        for ln in k0:
            assert float(ln.split(",")[2]) == 0.0

    def test_seventeen_digit_roundtrip(self, tmp_path):
        run_cli(tmp_path, "spectrum", config={"preset": "generic", "N": 3})
        lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        from ggkdv.spectral import PRESETS, spectrum_table
        t = spectrum_table(PRESETS["generic"], 3)
        for ln in lines[1:]:
            parts = ln.split(",")
            k, omega = int(parts[0]), float(parts[2])
            branch = 0 if parts[1] == "+" else 1
            exact = t.omega[branch, k + t.N]
            assert omega == exact  # 17 significant digits round-trip exactly


class TestObserve:
    def test_window_sweep_rows(self, tmp_path):
        t0 = 4 * math.pi
        cfg = {"preset": "resonant", "N": 6, "mode": "u",
               "window_lengths": [0.5 * t0, 1.0 * t0, 1.5 * t0]}
        assert run_cli(tmp_path, "observe", config=cfg) == 0
        lines = (tmp_path / "observability.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 3
        kernel_dims = [int(ln.split(",")[-1]) for ln in lines[1:]]
        assert kernel_dims == [1, 1, 1]

    def test_bytes_independent_of_x0(self, tmp_path):
        # alpha is ~7e-12 of beta here, where roundoff reaches the digits
        written = []
        for x0 in (0.0, 2.5):
            out = tmp_path / f"x0_{x0}"
            out.mkdir()
            cfg = {"preset": "generic", "N": 48, "window_length": 0.5,
                   "x0": x0}
            assert run_cli(out, "observe", config=cfg) == 0
            written.append((out / "observability.csv").read_bytes())
        assert written[0] == written[1]


class TestControl:
    def test_mean_violation_exit_2_no_plan(self, tmp_path, capsys):
        cfg = {"preset": "generic", "N": 5, "T": 1.0, "mode": "g",
               "initial": "random", "target": "zero", "seed": 1}
        assert run_cli(tmp_path, "control", config=cfg) == 2
        assert not (tmp_path / "plan.json").exists()
        assert "constraint violation" in capsys.readouterr().err

    def test_roundtrip_artifacts(self, tmp_path):
        cfg = {"preset": "generic", "N": 5, "T": 1.0, "seed": 3,
               "initial": "random", "target": "zero"}
        assert run_cli(tmp_path, "control", "--quiet", config=cfg) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["mode"] == "both" and plan["cost"] > 0
        verify = (tmp_path / "verify.csv").read_text().strip().splitlines()
        err = float(verify[1].split(",")[-1])
        assert err <= 1e-8

    def test_long_horizon_quiet(self, tmp_path):
        # no overflow warning from the closed forms at T far past 709.8
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"preset": "generic", "N": 6, "T": 1e20}))
        proc = subprocess.run(
            [sys.executable, "-m", "ggkdv.cli", "control", "--quiet",
             "--config", str(cfg), "--out", str(tmp_path)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert (tmp_path / "plan.json").exists()

    def test_horizon_past_sqrt_float_max(self, tmp_path):
        # past sqrt(float max): the solution scales as 1/T, and the error
        # estimate takes its norm without underflow
        cfg = {"preset": "generic", "N": 6, "T": 1e200, "seed": 3,
               "initial": "random", "target": "random"}
        assert run_cli(tmp_path, "control", "--quiet", config=cfg) == 0
        verify = (tmp_path / "verify.csv").read_text().strip().splitlines()
        assert float(verify[1].split(",")[-1]) <= 1e-15


class TestDefaults:
    @pytest.mark.parametrize("command", ["control", "stabilize"])
    def test_empty_config_runs(self, tmp_path, command):
        # the default parameters are resonant; T and Th follow T0
        assert run_cli(tmp_path, command, config={}) == 0


class TestIngham:
    def test_huge_window_constants_are_its_length(self, tmp_path):
        # over a window of length L every constant of a unit-gap family is
        # L (1 + O(1/L))
        assert run_cli(tmp_path, "ingham", config={"t1": 1e300}) == 0
        row = (tmp_path / "ingham.csv").read_text().splitlines()[1]
        length, direct, inverse = map(float, row.split(",")[1:])
        assert length == 1e300
        assert direct == pytest.approx(length, rel=1e-12)
        assert inverse == pytest.approx(length, rel=1e-12)

    def test_range_bound_is_inclusive(self, tmp_path):
        assert run_cli(tmp_path, "ingham",
                       config={"freq_min": 1024, "freq_max": 1024}) == 0
        rows = (tmp_path / "ingham.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "1"


class TestStabilize:
    def test_long_horizon_rate(self, tmp_path):
        # the energy underflows at t = 182.5 of 1000
        cfg = {"preset": "generic", "omega_target": 1.0, "T_sim": 1000}
        assert run_cli(tmp_path, "stabilize", config=cfg) == 0
        summary = json.loads(
            (tmp_path / "stabilize_summary.json").read_text())
        rate, abscissa = summary["fitted_rate"], summary["abscissa"]
        assert abs(rate + abscissa) <= 1e-3 * abs(abscissa)
        assert rate >= 0.9 * 1.0


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            cfg = {"preset": "generic", "N": 5, "T": 1.0, "seed": 7,
                   "initial": "random", "target": "zero"}
            assert run_cli(d, "control", "--quiet", config=cfg) == 0
            assert run_cli(d, "duality", "--quiet",
                           config={"preset": "generic", "seed": 7}) == 0
            outs.append({p.name: p.read_bytes()
                         for p in d.iterdir() if p.name != "config.json"})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name


# the commands that read a truncation order N
SIZED = sorted(set(cli._DISPATCH) - {"ingham"})
# the commands that read an observation or control point x0
X0_COMMANDS = ["control", "duality", "observe", "stabilize"]


class TestErrors:
    def test_bad_preset_exit_4(self, tmp_path, capsys):
        assert run_cli(tmp_path, "spectrum", config={"preset": "nope"}) == 4
        assert "config error" in capsys.readouterr().err

    def test_bad_json_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["spectrum", "--out", str(tmp_path),
                     "--config", str(bad)]) == 4
        assert "config error" in capsys.readouterr().err

    def test_nonpositive_params_exit_4(self, tmp_path):
        assert run_cli(tmp_path, "spectrum", config={"a": -2.0}) == 4

    @pytest.mark.parametrize("command, cfg", [
        ("observe", {"mode": "x"}),
        ("control", {"mode": "x"}),
        ("observe", {"N": -1}),
        ("control", {"N": "abc"}),
        ("spectrum", {"N": 2.5}),
        ("observe", {"ns": [4, -2]}),
        ("observe", {"window_length": -1}),
        ("observe", {"window_length": "abc"}),
        ("observe", {"window_lengths": [1.0, 0.0]}),
        ("ingham", {"frequencies": [1, 1, 2]}),
        ("ingham", {"frequencies": []}),
        ("ingham", {"frequencies": "abc"}),
        ("ingham", {"frequencies": [1, "x"]}),
        ("spectrum", {"preset": None, "a": [1]}),
        ("control", {"initial": [[1, 2, 3]]}),
        ("control", {"initial": [[0.0, 0.0]] * 25 + ["x"]}),
        ("observe", {"preset": ["generic"]}),
        ("observe", {"preset": {"a": 1}}),
        # the control operator's form overflows
        ("control", {"N": 6, "T": 1e308}),
        ("observe", {"preset": None, "a": math.inf}),
        ("spectrum", {"preset": None, "d": math.nan}),
        ("spectrum", {"preset": None, "a": "2"}),
        ("spectrum", {"preset": None, "c": True}),
        # keys that no command reads
        ("stabilize", {"Thh": 3}),
        ("observe", {"windowlength": 0.5}),
        ("control", {"t": 1.0}),
        # the window length itself overflows
        ("ingham", {"t0": -1.7e308, "t1": 1.7e308}),
        # JSON integers beyond the float range
        ("spectrum", {"preset": None, "a": 10**400}),
        ("control", {"preset": None, "a": 10**400}),
        ("observe", {"preset": None, "a": 10**400}),
        ("resonance", {"tol": 10**400}),
        ("control", {"T": 10**400}),
        ("observe", {"window_length": 10**400}),
        # inputs that size a run, past their bounds
        ("duality", {"draws": 10001}),
        ("ingham", {"freq_max": 1025}),
        ("ingham", {"freq_min": -1025}),
    ])
    def test_invalid_value_exit_4(self, tmp_path, capsys, command, cfg):
        assert run_cli(tmp_path, command,
                       config={"preset": "generic", **cfg}) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, cfg, code", [
        ("spectrum", {"preset": None, "a": 10**20}, 0),
        ("control", {"preset": None, "a": 10**20}, 3),
        ("observe", {"preset": None, "a": 10**20}, 0),
        ("resonance", {"tol": 10**20}, 0),
        ("control", {"T": 10**20}, 0),
        ("observe", {"window_length": 10**20}, 0),
    ])
    def test_large_json_int_read_as_float(self, tmp_path, capsys, command,
                                          cfg, code):
        # integers from 2**64 up used to reach np.isfinite unconverted
        assert run_cli(tmp_path, command,
                       config={"preset": "generic", **cfg}) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        assert run_cli(tmp_path, "stabilize",
                       config={"preset": "generic", "Thh": 3}) == 4
        assert capsys.readouterr().err == "config error: unknown key 'Thh'\n"
        assert not (tmp_path / "stabilize_summary.json").exists()

    def test_key_of_another_command_accepted(self, tmp_path):
        # one config may serve several commands
        cfg = {"preset": "generic", "N": 3, "T": 1.0, "target": "zero",
               "Th": 2.0, "window_length": 0.5}
        assert run_cli(tmp_path, "spectrum", "--seed", "4", config=cfg) == 0

    def test_known_keys_are_the_keys_read(self, tmp_path):
        # run every command on an empty config that records what it reads:
        # each default branch reads every key of its command
        class Recording(dict):
            def get(self, key, default=None):
                read.add(key)
                return default

            def __contains__(self, key):
                read.add(key)
                return False

        read = set()
        for name, command in cli._DISPATCH.items():
            out = tmp_path / name
            out.mkdir()
            cfg = Recording()
            try:
                command(cfg, cli._params_from(cfg), out, True)
            except (cli.ConfigError, GGKdVError):
                pass  # control and stabilize reject the defaults after the reads
        assert read == cli._KEYS.keys()

    @pytest.mark.parametrize("command, cfg", [
        # default parameters are resonant: Th=2 is below T0 = 4 pi
        ("stabilize", {"N": 4, "Th": 2.0}),
        ("stabilize", {"preset": "generic", "omega_target": -0.5}),
        # the slow branch vanishes at |k| = 1 and meets the k=0 pair
        ("stabilize", {"a": 0.5, "c": 1.0, "d": 0.5, "r": 0.75, "N": 3}),
        # no decay to fit
        ("stabilize", {"preset": "generic", "initial": "zero"}),
        ("control", {"preset": "generic", "T": 0}),
        ("control", {"preset": "generic", "N": 8, "T": -0.7}),
        # no rate to fit: one normal energy, or times whose squares underflow
        ("stabilize", {"preset": "generic", "T_sim": 3e5}),
        ("stabilize", {"preset": "generic", "T_sim": 1e-300}),
        # the weight ac/d underflows to 0; the table's norms overflow
        ("spectrum", {"a": 1e-300, "c": 1e-300}),
        ("control", {"a": 1e300}),
        # N = 1e300 is beyond what numpy can index and is refused before
        # any allocation; 10**14 asks for 1.6 PB, more than any address
        # space maps
        *((command, {"N": N}) for command in SIZED for N in (1e300, 10**14)),
        ("observe", {"ns": [4, 1e300]}),
        ("observe", {"ns": [4, 10**14]}),
        # x0 outside [-2 pi, 2 pi], which holds every point of the circle
        *((command, {"preset": "generic", "N": 8, "x0": 1e308})
          for command in X0_COMMANDS),
        ("control", {"preset": "generic", "N": 8, "x0": 1e14}),
    ], ids=["stabilize-below-T0", "stabilize-negative-rate",
            "stabilize-resonant-pairs", "stabilize-zero-state",
            "control-zero-horizon", "control-negative-horizon",
            "stabilize-underflow-step", "stabilize-tiny-horizon",
            "spectrum-weight-underflow", "control-table-overflow",
            *(f"{command}-N-{N:.0e}" for command in SIZED
              for N in (1e300, 10**14)),
            "observe-ns-1e+300", "observe-ns-1e+14",
            *(f"{command}-x0-1e+308" for command in X0_COMMANDS),
            "control-x0-1e+14"])
    def test_rejected_run_exit_4(self, tmp_path, capsys, command, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(tmp_path, command, config=cfg) == 4
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    def test_int_over_digit_limit_exit_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"N": ' + "1" * 5000 + "}")
        assert main(["spectrum", "--out", str(tmp_path),
                     "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.startswith("config error:")

    def test_generic_single_control_exit_3(self, tmp_path, capsys):
        # mean-matched generic data below the single-trace threshold: the
        # solve could not reach the target to 1e-8, so no plan is written
        N = 6
        c = np.random.default_rng(5).standard_normal((2, 2 * (2 * N + 1)))
        c[:, [N, 3 * N + 1]] = 0.0   # k=0 on both branches: zero means
        cfg = {"preset": "generic", "N": N, "T": 1.0, "mode": "g",
               "initial": c.T.tolist(), "target": "zero"}
        assert run_cli(tmp_path, "control", config=cfg) == 3
        assert "ill-conditioned" in capsys.readouterr().err
        assert not (tmp_path / "plan.json").exists()

    def test_short_window_ill_conditioned_exit_3(self, tmp_path, capsys):
        cfg = {"preset": "resonant", "N": 16, "T": 0.5, "seed": 1,
               "initial": "random", "target": "zero"}
        assert run_cli(tmp_path, "control", config=cfg) == 3
        err = capsys.readouterr().err
        assert "ill-conditioned" in err


class TestReadme:
    def test_key_table_names_exactly_the_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        first_cells = [line.split("|")[1] for line in section.splitlines()
                       if line.startswith("| `")]
        named = [key for cell in first_cells
                 for key in re.findall(r"`([^`]+)`", cell)]
        assert sorted(named) == sorted(cli._KEYS)


class TestWarnings:
    def test_resonant_warning_mentions_critical_time(self, tmp_path, capsys):
        assert run_cli(tmp_path, "spectrum",
                       config={"preset": "resonant", "N": 3}) == 0
        err = capsys.readouterr().err
        assert "resonant" in err and "T0=" in err

    def test_generic_no_warning(self, tmp_path, capsys):
        assert run_cli(tmp_path, "spectrum",
                       config={"preset": "generic", "N": 3}) == 0
        assert capsys.readouterr().err == ""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ggkdv.cli", "gaps", "--preset", "generic",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        summary = json.loads((tmp_path / "gaps_summary.json").read_text())
        assert summary["A_const"] == pytest.approx(1 + math.sqrt(2))
        assert (tmp_path / "gaps.csv").exists()


# numbers at the edges of the float range, beside ordinary ones
EDGE_NUMBERS = [0, 1, -1, 0.5, 2.5, 7, 1e20, 1e308, -1e308, 1e-300, 5e-324,
                -5e-324, math.inf, math.nan]
# integers kept small where they size a run: N, ns entries, draws and the
# Ingham range
SIZES = {"N": st.integers(-1, 32), "ns": st.integers(-1, 32),
         "draws": st.integers(-1, 3), "freq_min": st.integers(-8, 8),
         "freq_max": st.integers(-8, 8), "seed": st.integers(-1, 2**70)}
ALIEN = st.sampled_from(["abc", None, True, [], {}, [[1, 2, 3]], 0, ""])


@st.composite
def cli_runs(draw):
    """A command and a config over the keys of ``cli._KEYS``: each drawn
    key holds a value of its kind, in or out of its range, or a value of
    another kind.  N stays at most 32, draws at most 3 and ns at most 3
    entries long, so every run is small."""
    number = st.sampled_from(EDGE_NUMBERS) | st.floats(-10, 10) | st.floats()
    cfg = {"preset": "generic"}
    for key in draw(st.lists(st.sampled_from(sorted(cli._KEYS)), unique=True,
                             max_size=6)):
        kind = cli._KEYS[key][0]
        scalar = SIZES.get(key, number)
        own = {
            "preset": st.sampled_from([None, "generic", "resonant", "nope"]),
            "mode": st.sampled_from(["both", "u", "v", "f", "g", "u_only",
                                     "g_only", "x"]),
            "state": st.sampled_from(["zero", "random", None, "pairs"]),
            "integer list": st.lists(scalar, max_size=3),
            "number list": st.lists(scalar, max_size=3),
        }.get(kind, scalar)
        cfg[key] = draw(own | ALIEN)
    for key in ("initial", "target"):
        if cfg.get(key) == "pairs":
            # one coefficient pair repeated, at the length N asks for
            N = cfg.get("N", 6) if isinstance(cfg.get("N"), int) else 6
            cfg[key] = [[draw(number), draw(number)]] * (2 * (2 * N + 1))
    return draw(st.sampled_from(sorted(cli._DISPATCH))), cfg


# the stderr line that goes with each exit code but 0
EXIT_LINES = {2: "constraint violation:", 3: "ill-conditioned:",
              4: "config error:"}


class TestContractFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(cli_runs())
    # non-finite forms: the window, the weighted Gramian's horizon and rate
    @example(("observe", {"preset": "generic", "window_length": 1e308}))
    @example(("stabilize", {"preset": "generic", "Th": 1e308}))
    @example(("stabilize", {"preset": "generic", "omega_target": 1e308}))
    @example(("stabilize", {"preset": "generic", "Th": 1e300,
                            "omega_target": 0}))
    # half-windows that underflow to zero
    @example(("observe", {"preset": "generic", "window_length": 5e-324}))
    @example(("control", {"preset": "generic", "T": 5e-324}))
    # a spectrum table with a zero norm
    @example(("observe", {"preset": None, "a": 1e-300}))
    # horizons that overflow the duality defect
    @example(("duality", {"preset": "generic", "T": 1e308}))
    @example(("duality", {"preset": "generic", "T": -1e308}))
    # states whose energy overflows, at once or in the closed loop
    @example(("control", {"preset": "generic",
                          "initial": [[1e308, 1e308]] * 26}))
    @example(("stabilize", {"preset": "generic",
                            "initial": [[1e308, 1e308]] * 26}))
    # ... and one whose energy overflows only as it grows 2.7-fold
    @example(("stabilize", {"preset": "resonant", "N": 32,
                            "omega_target": 1.0,
                            "initial": [[1.4e152, 0.0]] * 130}))
    # the bounds on the inputs that size a run
    @example(("duality", {"preset": "generic", "draws": 10001}))
    @example(("ingham", {"preset": "generic", "freq_max": 1025}))
    @example(("ingham", {"preset": "generic", "freq_min": -1025}))
    @example(("ingham", {"preset": "generic", "freq_min": 1024,
                         "freq_max": 1024}))
    # falsy values that are not lists
    @example(("observe", {"preset": "generic", "ns": 0}))
    @example(("observe", {"preset": "generic", "ns": {}}))
    @example(("observe", {"preset": "generic", "window_lengths": ""}))
    def test_exit_code_and_stderr(self, run):
        # every config ends in a documented exit code, with nothing on
        # stderr but the resonant warning and the line of that code, and
        # no warning; a run that exits 0 writes no NaN or infinity
        command, cfg = run
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "config.json"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command, "--out", out, "--quiet",
                             "--config", str(path)])
            written = [p.read_text() for p in Path(out).iterdir()
                       if p != path]
        assert code in (0, 2, 3, 4)
        assert not any(re.search(r"(?i)\b(nan|inf|infinity)\b", text)
                       for text in written)
        lines = [ln for ln in err.getvalue().splitlines()
                 if not ln.startswith("warning: resonant parameters")]
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith(EXIT_LINES[code])

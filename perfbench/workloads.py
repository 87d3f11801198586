"""The four benchmark workloads: seeded inputs, the timed calls into the
layers, and the oracles that check every result after timing.

Every workload is a sequence of rounds.  A round is a fixed mix of units
drawn from the workload seed with numpy alone; a unit is one or more tasks
timed together (a ``steer`` group shares one assembled ``HumSystem``).
Inputs of round ``r`` come from ``default_rng([seed, r])`` and are made
before the round starts, so no input generation is timed.
"""

from __future__ import annotations

# ggkdv comes first: a package-level BLAS-thread policy must act before the
# harness itself touches numpy.
import ggkdv  # noqa: F401
from ggkdv import errors, gram, hum, modal, spectral, stabilize
from ggkdv.signals import ExponentialSignal

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from common import LADDERS, ROOT, checkout_env

EPS_DIGITS = -math.log10(np.finfo(float).eps)
T0 = spectral.critical_time(spectral.PRESETS["resonant"])


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at -log10(eps)."""
    if not rel_err > 0:
        return EPS_DIGITS
    return min(EPS_DIGITS, -math.log10(rel_err))


@dataclass
class Unit:
    """Inputs of one timed unit of one or more tasks."""

    case: str
    N: int
    item: tuple          # identifies repeats of the same (non-seeded) setting
    args: dict


@dataclass
class Record:
    """Outcome of one task.  ``error`` holds an unexpected exception."""

    case: str
    N: int
    item: tuple
    round: int
    latency_s: float
    result: dict | None = None
    error: str | None = None
    ok: bool = False
    digits: float | None = None
    why: str = ""
    in_latency: bool = True  # counts in the latency figures


def _timed(fn):
    start = time.perf_counter()
    try:
        return fn(), None, time.perf_counter() - start
    except Exception as exc:  # a failed task is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start


# --------------------------------------------------------------------- steer

# (case, preset, horizon, mode, conserved mean to match, expected outcome)
STEER_CASES = (
    ("generic_both", "generic", 1.0, "both", None, "roundtrip"),
    ("resonant_both", "resonant", 1.2 * T0, "both", None, "roundtrip"),
    ("resonant_g_only", "resonant", 1.2 * T0, "g_only", "u", "roundtrip"),
    ("resonant_f_only", "resonant", 1.2 * T0, "f_only", "v", "roundtrip"),
    ("resonant_short", "resonant", 0.5 * T0, "both", None, "ill"),
    ("generic_g_only", "generic", 1.0, "g_only", "u", "roundtrip_or_ill"),
    ("generic_f_only", "generic", 1.0, "f_only", "v", "roundtrip_or_ill"),
)
# state pairs steered against one assembled system, per N: many small,
# interactive-size problems and one large one per case
STEER_PAIRS = {6: 4, 16: 4, 32: 1, 64: 1}
# round-trip tolerances of acceptance criteria 5 (two controls) and 8 (one)
ROUNDTRIP_TOL = {"both": 1e-8, "g_only": 1e-7, "f_only": 1e-7}


def _band_limited(rng, N: int, M: int) -> np.ndarray:
    """Real random field on M grid points with modes |k| <= N."""
    c = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    c = (c + np.conj(c[::-1])) / (2 * math.sqrt(2 * N + 1))
    spec = np.zeros(M, dtype=complex)
    spec[np.arange(-N, N + 1) % M] = c
    return np.fft.ifft(spec).real * M


class Steer:
    def make_round(self, seed: int, r: int) -> list[Unit]:
        rng = np.random.default_rng([seed, r])
        units = []
        for N, pairs in STEER_PAIRS.items():
            M = 4 * N
            for case, preset, T, mode, match, expect in STEER_CASES:
                if expect == "ill" and N < 16:
                    continue
                states = []
                for _ in range(pairs):
                    ui, vi, ut, vt = (_band_limited(rng, N, M) for _ in range(4))
                    if match == "u":
                        ut += ui.mean() - ut.mean()
                    elif match == "v":
                        vt += vi.mean() - vt.mean()
                    states.append((ui, vi, ut, vt))
                units.append(Unit(case, N, (case, N),
                                  dict(preset=preset, T=T, mode=mode,
                                       states=states)))
        return [units[i] for i in rng.permutation(len(units))]

    def run(self, unit: Unit, tr, r: int, next_id) -> tuple[list[Record], float]:
        a, N = unit.args, unit.N
        params = spectral.PRESETS[a["preset"]]
        system, error, total = _timed(lambda: tr.call(
            "hum.assemble_lambda", N, hum.assemble_lambda,
            params, N, 0.0, a["T"], a["mode"]))
        records = []
        for ui, vi, ut, vt in a["states"]:
            gi, gt = modal.GridFunction(ui, vi), modal.GridFunction(ut, vt)
            with tr.task(next_id(), f"task.steer.{unit.case}", N):
                if error is None:
                    result, err, dt = _timed(lambda: self._pair(
                        tr, params, N, a["T"], a["mode"], system, gi, gt))
                else:
                    result, err, dt = None, error, 0.0
            total += dt
            records.append(Record(unit.case, N, unit.item, r, dt, result, err))
        return records, total

    @staticmethod
    def _pair(tr, params, N, T, mode, system, gi, gt) -> dict:
        initial = tr.call("modal.project", N, modal.project, params, N, gi)
        target = tr.call("modal.project", N, modal.project, params, N, gt)
        try:
            plan = tr.call("hum.solve_control", N, hum.solve_control, params,
                           N, 0.0, T, initial, target, mode, system=system)
        except errors.IllConditioned:
            tr.count("hum.ill_conditioned")
            return {"ill": True, "kernel_evals": 0}
        err = tr.call("hum.verify_roundtrip", N, hum.verify_roundtrip,
                      params, N, plan, initial, target)
        cost = tr.call("hum.control_cost", N, hum.control_cost, plan)
        terms = [len(s.terms) for s in (plan.f, plan.g) if s]
        # control_cost pairs every term with every term; the Duhamel step
        # integrates every term against every (branch, k) frequency
        evals = sum(n * n for n in terms) + sum(terms) * 2 * (2 * N + 1)
        return {"ill": False, "err": err, "cost": cost, "kernel_evals": evals}

    def check(self, records: list[Record]) -> None:
        expect = {c[0]: (c[3], c[5]) for c in STEER_CASES}
        for rec in records:
            rec.ok, rec.digits, rec.why = False, None, ""
            if rec.error:
                rec.why = rec.error
                continue
            mode, outcome = expect[rec.case]
            res = rec.result
            if res["ill"]:
                rec.ok = outcome in ("ill", "roundtrip_or_ill")
                rec.why = "" if rec.ok else "unexpected IllConditioned"
                continue
            tol = ROUNDTRIP_TOL[mode]
            rec.digits = digits(res["err"])
            if outcome == "ill":
                rec.why = "expected IllConditioned, got a plan"
            elif not res["err"] <= tol:
                rec.why = f"round-trip error {res['err']:.3e} > {tol:g}"
            elif not (math.isfinite(res["cost"]) and res["cost"] > 0):
                rec.why = f"control cost {res['cost']!r}"
            else:
                rec.ok = True


# ------------------------------------------------------------------- observe

OBS_WINDOWS = (("generic", 0.5), ("generic", 1.0),
               ("resonant", 0.5 * T0), ("resonant", 1.5 * T0))
# windows past the threshold, where single-trace kernels are 1-d (crit. 7)
LONG_WINDOWS = {("generic", 1.0), ("resonant", 1.5 * T0)}
OBS_MODES = ("both", "u_only", "v_only")
OBS_REPEATS = {6: 3, 16: 3, 32: 1, 64: 1, 128: 1}
DD_REPEATS = {6: 2, 16: 2, 32: 1}
INGHAM_PER_ROUND = 8
BETA_ORACLE_MAX_N = 32
BETA_TOL = 1e-10
INGHAM_TOL = 1e-12


class Observe:
    def make_round(self, seed: int, r: int) -> list[Unit]:
        rng = np.random.default_rng([seed, r])
        units = []
        for N, reps in OBS_REPEATS.items():
            for preset, length in OBS_WINDOWS:
                for mode in OBS_MODES:
                    for _ in range(reps):
                        units.append(Unit(
                            "observability", N, ("obs", preset, N, length, mode),
                            dict(preset=preset, length=length, mode=mode,
                                 x0=float(rng.uniform(0, 2 * math.pi)))))
        for N, reps in DD_REPEATS.items():
            for preset, length in OBS_WINDOWS:
                for _ in range(reps):
                    units.append(Unit("divided_difference", N,
                                      ("dd", preset, N, length),
                                      dict(preset=preset, length=length)))
        for _ in range(INGHAM_PER_ROUND):
            lo, hi = -int(rng.integers(2, 17)), int(rng.integers(2, 17))
            units.append(Unit("ingham", 16, ("ingham", lo, hi),
                              dict(lo=lo, hi=hi,
                                   t0=float(rng.uniform(0, 2 * math.pi)))))
        return [units[i] for i in rng.permutation(len(units))]

    def run(self, unit: Unit, tr, r: int, next_id) -> tuple[list[Record], float]:
        a, N = unit.args, unit.N
        with tr.task(next_id(), f"task.observe.{unit.case}", N):
            if unit.case == "observability":
                params = spectral.PRESETS[a["preset"]]
                window = gram.ObservationWindow(0.0, a["length"])
                result, err, dt = _timed(lambda: _obs_result(N, a["x0"], tr.call(
                    "gram.observability_constants", N,
                    gram.observability_constants,
                    params, N, a["x0"], window, a["mode"])))
            elif unit.case == "divided_difference":
                params = spectral.PRESETS[a["preset"]]
                window = gram.ObservationWindow(0.0, a["length"])
                result, err, dt = _timed(lambda: dict(zip(
                    ("lo", "hi", "eps"), tr.call(
                        "gram.divided_difference_constants", N,
                        gram.divided_difference_constants,
                        params, N, window)), kernel_evals=0))
            else:
                window = gram.ObservationWindow(a["t0"], a["t0"] + 2 * math.pi)
                freqs = range(a["lo"], a["hi"] + 1)
                result, err, dt = _timed(lambda: dict(zip(
                    ("direct", "inverse"), tr.call(
                        "gram.ingham_report", N, gram.ingham_report,
                        freqs, window)), kernel_evals=len(freqs) ** 2))
        # Divided-difference constants are pure Python; on a 2-CPU reference
        # host their speed swung by about 50% from run to run, three times
        # more than the other small calls.  They count in tasks_per_s and in
        # the per-layer metrics, not in the latency figures.
        return [Record(unit.case, N, unit.item, r, dt, result, err,
                       in_latency=unit.case != "divided_difference")], dt

    def check(self, records: list[Record]) -> None:
        oracle_beta: dict[tuple, float] = {}
        for rec in records:
            rec.ok, rec.digits, rec.why = False, None, ""
            if rec.error:
                rec.why = rec.error
                continue
            res = rec.result
            if rec.case == "observability":
                _, preset, N, length, mode = rec.item
                if not (0 <= res["alpha"] <= res["beta"]
                        and math.isfinite(res["beta"])):
                    rec.why = f"alpha {res['alpha']!r}, beta {res['beta']!r}"
                    continue
                if (mode != "both" and (preset, length) in LONG_WINDOWS
                        and res["kernel_dim"] != 1):
                    rec.why = f"kernel_dim {res['kernel_dim']} != 1"
                    continue
                if N <= BETA_ORACLE_MAX_N:
                    if rec.item not in oracle_beta:
                        oracle_beta[rec.item] = beta_oracle(
                            spectral.PRESETS[preset], N, res["x0"], length, mode)
                    rel = abs(res["beta"] - oracle_beta[rec.item]) / res["beta"]
                    rec.digits = digits(rel)
                    if not rel <= BETA_TOL:
                        rec.why = f"beta off its Rayleigh quotient by {rel:.2e}"
                        continue
                rec.ok = True
            elif rec.case == "divided_difference":
                lo, hi = res["lo"], res["hi"]
                rec.ok = (math.isfinite(hi) and hi > 0
                          and -1e-10 * hi <= lo <= hi)
                rec.why = "" if rec.ok else f"Riesz bounds ({lo!r}, {hi!r})"
            else:
                two_pi = 2 * math.pi
                rel = max(abs(res["direct"] - two_pi),
                          abs(res["inverse"] - two_pi)) / two_pi
                rec.digits = digits(rel)
                rec.ok = rel <= INGHAM_TOL
                rec.why = "" if rec.ok else f"Ingham constants off 2pi by {rel:.2e}"


def _obs_result(N: int, x0: float, rep) -> dict:
    return {"alpha": rep.alpha, "beta": rep.beta, "kernel_dim": rep.kernel_dim,
            "x0": x0,
            "kernel_evals": (2 * (2 * N + 1)) ** 2}


def beta_oracle(params, N: int, x0: float, length: float, mode: str) -> float:
    """beta recomputed as the Rayleigh quotient of the top eigenvector,
    through ``modal.trace`` and the scalar kernel in
    ``ExponentialSignal.l2_norm_sq``.

    Only the eigenvector comes from a dense solve; the quotient is
    stationary there, so its own error enters the check squared.
    """
    table = spectral.spectrum_table(params, N)
    phase = np.exp(1j * table.ks * x0)
    omega = table.omega.ravel()
    delta = omega[:, None] - omega[None, :]
    zero = delta == 0
    safe = np.where(zero, 1.0, delta)
    base = np.where(zero, length, (np.exp(1j * safe * length) - 1) / (1j * safe))
    channels = {"both": (0, 1), "u_only": (0,), "v_only": (1,)}[mode]
    amps = [(table.z[:, :, c] * phase).ravel() for c in channels]
    form = sum(np.outer(amp, amp.conj()) * base for amp in amps)
    _, vecs = scipy.linalg.eigh(form, np.diag((2 * np.pi * table.norm2).ravel()))
    # the form's quadratic map is c -> conj(c)^H O conj(c)
    state = modal.ModalState(N, vecs[:, -1].conj().reshape(2, 2 * N + 1))
    traces = modal.trace(params, state, x0)
    observed = sum(traces[c].l2_norm_sq(0.0, length) for c in channels)
    return observed / modal.energy(params, state)


# ----------------------------------------------------------------- stabilize

STAB_SETTINGS = (("generic", 2.0), ("resonant", 1.5 * T0))  # (preset, Th)
STAB_RATES = (0.25, 0.5, 1.0)
STAB_REPEATS = {6: 4, 16: 3, 32: 2}
# simulate four horizons, so the tail-half fit sees the asymptotic rate
SIM_HORIZONS = 4
ENERGY_TOL = 1e-6


class Stabilize:
    def __init__(self):
        # closed-loop generator of the first run of each setting; repeats
        # are checked against it, so the records stay small
        self.closed_loops: dict[tuple, np.ndarray] = {}

    def make_round(self, seed: int, r: int) -> list[Unit]:
        rng = np.random.default_rng([seed, r])
        units = []
        for N, reps in STAB_REPEATS.items():
            shape = (2, 2 * N + 1)
            for preset, Th in STAB_SETTINGS:
                for w in STAB_RATES:
                    for _ in range(reps):
                        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                        units.append(Unit("feedback", N, (preset, N, w),
                                          dict(preset=preset, Th=Th, w=w,
                                               coeffs=c)))
        return [units[i] for i in rng.permutation(len(units))]

    def run(self, unit: Unit, tr, r: int, next_id) -> tuple[list[Record], float]:
        with tr.task(next_id(), "task.stabilize.feedback", unit.N):
            result, err, dt = _timed(lambda: self._task(tr, unit))
        return [Record(unit.case, unit.N, unit.item, r, dt, result, err)], dt

    def _task(self, tr, unit: Unit) -> dict:
        a, N = unit.args, unit.N
        params = spectral.PRESETS[a["preset"]]
        report = tr.call("spectral.resonance_check", N,
                         spectral.resonance_check, params, N, 1e-9)
        if report.violations:
            raise ValueError(f"resonant pairs {report.violations[:3]}")
        try:
            gains = tr.call("stabilize.feedback_gains", N,
                            stabilize.feedback_gains,
                            params, N, 0.0, a["w"], a["Th"])
        except errors.GramianSingular:
            tr.count("stabilize.gramian_singular")
            raise
        sim = tr.call("stabilize.closed_loop_simulate", N,
                      stabilize.closed_loop_simulate, params, N, gains,
                      modal.ModalState(N, a["coeffs"]), SIM_HORIZONS * a["Th"])
        self.closed_loops.setdefault(unit.item, gains.closed_loop)
        probe = len(sim.times) // 10
        return {"abscissa": sim.abscissa, "rate": sim.fitted_decay_rate,
                "energy0": float(sim.energies[0]),
                "t_probe": float(sim.times[probe]),
                "energy_probe": float(sim.energies[probe]),
                "coeffs": a["coeffs"],
                # the Gramian pairs every frequency with every frequency
                "kernel_evals": (2 * (2 * N + 1)) ** 2}

    def check(self, records: list[Record]) -> None:
        for rec in records:
            rec.ok, rec.digits, rec.why = False, None, ""
            if rec.error:
                rec.why = rec.error
                continue
            res = rec.result
            preset, N, w = rec.item
            params = spectral.PRESETS[preset]
            state = modal.ModalState(N, res["coeffs"])
            # criterion 9: spectral abscissa and fitted rate beat 0.9 w
            if not res["abscissa"] <= -0.9 * w:
                rec.why = f"abscissa {res['abscissa']:.4f} > {-0.9 * w:.4f}"
                continue
            if not res["rate"] >= 0.9 * w:
                rec.why = f"fitted rate {res['rate']:.4f} < {0.9 * w:.4f}"
                continue
            e0 = modal.energy(params, state)
            if not abs(res["energy0"] - e0) <= 1e-12 * e0:
                rec.why = f"initial energy {res['energy0']!r} != {e0!r}"
                continue
            # one matrix exponential over the probe time against the
            # simulator's product of 40 step exponentials
            table = spectral.spectrum_table(params, N)
            y0 = res["coeffs"].ravel() * np.sqrt(2 * np.pi * table.norm2).ravel()
            y = scipy.linalg.expm(self.closed_loops[rec.item] * res["t_probe"]) @ y0
            exact = float(np.vdot(y, y).real)
            rel = abs(res["energy_probe"] - exact) / exact
            rec.digits = digits(rel)
            rec.ok = rel <= ENERGY_TOL
            rec.why = "" if rec.ok else f"probe energy off by {rel:.2e}"


# ----------------------------------------------------------------------- cli

# (invocation, argv after the command name, config, expected exit code, N);
# N is 0 for a command at its default size, which counts as small
CLI_INVOCATIONS = (
    ("spectrum", ["spectrum", "--preset", "generic"], None, 0, 0),
    ("gaps", ["gaps", "--preset", "generic"], None, 0, 0),
    ("resonance", ["resonance", "--preset", "generic"], None, 0, 0),
    ("observe", ["observe", "--preset", "generic"], None, 0, 0),
    ("ingham", ["ingham", "--preset", "generic"], None, 0, 0),
    ("control", ["control", "--preset", "generic"], None, 0, 0),
    ("stabilize", ["stabilize", "--preset", "generic"], None, 0, 0),
    ("duality", ["duality", "--preset", "generic"], None, 0, 0),
    ("observe_n48", ["observe", "--preset", "generic"],
     {"N": 48, "window_length": 0.5}, 0, 48),
    ("control_mean_mismatch", ["control", "--preset", "generic"],
     {"N": 6, "T": 1.0, "mode": "g", "initial": "random", "target": "zero"},
     2, 0),
    ("control_ill_conditioned", ["control"],
     {"preset": "resonant", "N": 16, "T": 6.28, "initial": "random",
      "target": "zero"}, 3, 0),
    ("observe_mode_x", ["observe", "--preset", "generic"], {"mode": "x"}, 4, 0),
)
SEEDED = {"control", "stabilize", "duality", "control_mean_mismatch",
          "control_ill_conditioned"}
CLI_TIMEOUT_S = 120


def run_cli(argv: list[str], out: Path, env: dict) -> tuple[int, bytes, bytes]:
    """One ``python -m ggkdv.cli`` process: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "ggkdv.cli", *argv,
                           "--out", str(out), "--quiet"],
                          capture_output=True, env=env, timeout=CLI_TIMEOUT_S,
                          cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def _digest(out: Path, stdout: bytes) -> str:
    h = hashlib.sha256(stdout)
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Cli:
    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = checkout_env()
        self.seeds: dict[str, int] = {}

    def make_round(self, seed: int, r: int) -> list[Unit]:
        # every round repeats the same inputs, so output bytes must repeat
        rng = np.random.default_rng([seed])
        seeds = {name: int(rng.integers(0, 2**31)) for name in sorted(SEEDED)}
        self.seeds = seeds
        units = []
        for name, argv, cfg, code, N in CLI_INVOCATIONS:
            argv = list(argv)
            if cfg is not None:
                path = self.scratch / "configs" / f"{name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(cfg))
                argv += ["--config", str(path)]
            if name in seeds:
                argv += ["--seed", str(seeds[name])]
            units.append(Unit(name, N, (name,), dict(argv=argv, code=code)))
        order = np.random.default_rng([seed, r]).permutation(len(units))
        return [units[i] for i in order]

    def run(self, unit: Unit, tr, r: int, next_id) -> tuple[list[Record], float]:
        out = self.scratch / "out" / unit.case
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        with tr.task(next_id(), f"task.cli.{unit.case}", unit.N):
            result, err, dt = _timed(lambda: tr.call(
                f"cli.{unit.case}", unit.N, run_cli, unit.args["argv"], out,
                self.env))
        if result is not None:
            code, stdout, stderr = result
            result = {"code": code, "traceback": b"Traceback" in stderr,
                      "digest": _digest(out, stdout), "kernel_evals": 0}
        return [Record(unit.case, unit.N, unit.item, r, dt, result, err)], dt

    def check(self, records: list[Record]) -> None:
        expected = {name: code for name, _, _, code, _ in CLI_INVOCATIONS}
        oracles = {"spectrum": self._spectrum_digits,
                   "ingham": self._ingham_digits,
                   "control": self._control_digits,
                   "stabilize": self._stabilize_check,
                   "duality": self._duality_check}
        first: dict[str, str] = {}
        numeric: dict[str, tuple[bool, float | None, str]] = {}
        for rec in records:
            rec.ok, rec.digits, rec.why = False, None, ""
            if rec.error:
                rec.why = rec.error
                continue
            res = rec.result
            if res["code"] != expected[rec.case]:
                rec.why = f"exit {res['code']}, expected {expected[rec.case]}"
            elif res["traceback"]:
                rec.why = "traceback on stderr"
            elif first.setdefault(rec.case, res["digest"]) != res["digest"]:
                rec.why = "output bytes differ between repeats"
            else:
                if rec.case in oracles and rec.case not in numeric:
                    numeric[rec.case] = oracles[rec.case](
                        self.scratch / "out" / rec.case)
                rec.ok, rec.digits, rec.why = numeric.get(rec.case,
                                                          (True, None, ""))

    # The numeric oracles read the outputs left by the last repeat, which
    # the digest check has shown to equal every other repeat's.

    @staticmethod
    def _spectrum_digits(out: Path):
        params = spectral.PRESETS["generic"]
        rows = [line.split(",") for line in
                (out / "spectrum.csv").read_text().splitlines()[1:]]
        by_k: dict[int, list[float]] = {}
        for row in rows:
            by_k.setdefault(int(row[0]), []).append(float(row[2]))
        worst = 0.0
        for k, omegas in by_k.items():
            exact = np.sort(np.linalg.eigvals(spectral.symbol_matrix(params, k)).real)
            got = np.sort(omegas)
            worst = max(worst, float(np.max(np.abs(got - exact)))
                        / max(1.0, float(np.max(np.abs(exact)))))
        ok = worst <= 1e-12
        return ok, digits(worst), "" if ok else f"omega off by {worst:.2e}"

    @staticmethod
    def _ingham_digits(out: Path):
        row = (out / "ingham.csv").read_text().splitlines()[1].split(",")
        rel = max(abs(float(x) - 2 * math.pi) for x in row[2:4]) / (2 * math.pi)
        ok = rel <= INGHAM_TOL
        return ok, digits(rel), "" if ok else f"Ingham constants off by {rel:.2e}"

    def _control_digits(self, out: Path):
        """Replay the written plan from the same seeded initial state."""
        params = spectral.PRESETS["generic"]
        plan_json = json.loads((out / "plan.json").read_text())
        N, T, x0 = plan_json["N"], plan_json["T"], plan_json["x0"]

        def signal(terms):
            return ExponentialSignal(tuple(
                (complex(t["amp_re"], t["amp_im"]), t["freq"], t["degree"])
                for t in terms)) if terms else None

        plan = hum.ControlPlan(signal(plan_json["f"]), signal(plan_json["g"]),
                               x0, T, None, None)
        rng = np.random.default_rng(self.seeds["control"])
        initial = modal.ModalState.random(N, rng)
        err = hum.verify_roundtrip(params, N, plan, initial,
                                   modal.ModalState.zeros(N))
        cost_rel = abs(hum.control_cost(plan) - plan_json["cost"]) / plan_json["cost"]
        ok = err <= ROUNDTRIP_TOL["both"] and cost_rel <= 1e-12
        why = "" if ok else f"replayed round trip {err:.2e}, cost off {cost_rel:.2e}"
        return ok, digits(err), why

    @staticmethod
    def _stabilize_check(out: Path):
        summary = json.loads((out / "stabilize_summary.json").read_text())
        w = summary["omega_target"]
        ok = summary["abscissa"] <= -0.9 * w and summary["fitted_rate"] >= 0.9 * w
        return ok, None, "" if ok else f"decay below 0.9 w: {summary}"

    @staticmethod
    def _duality_check(out: Path):
        worst = max(float(line.split(",")[1]) for line in
                    (out / "duality.csv").read_text().splitlines()[1:])
        ok = worst <= 1e-9
        return ok, None, "" if ok else f"duality residual {worst:.2e}"


def make(name: str, scratch: Path):
    """The workload object; ``scratch`` holds the CLI's configs and outputs."""
    if name == "cli":
        return Cli(scratch)
    return {"steer": Steer, "observe": Observe, "stabilize": Stabilize}[name]()


def build_tables(name: str) -> None:
    """The set-up every worker does before timing: the spectrum tables of
    its ladder."""
    for preset, N in LADDERS[name]:
        spectral.spectrum_table(spectral.PRESETS[preset], N)

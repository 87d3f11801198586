"""Experiment driver: reproduces the theorem-level claims as desk-scale
numerical experiments and emits CSV/JSON artifacts.

Configuration is a flat JSON object; common keys can also be given as
flags.  Exit codes: 0 success, 2 constraint violation, 3 ill-conditioned
operator, 4 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gram, hum, modal, spectral, stabilize
from .errors import ConstraintViolation, GGKdVError, IllConditioned


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class ConfigError(Exception):
    pass


#: Every config key that some command reads; any other key is a typo.
#: ``preset`` and ``seed`` are also set by the global flags.
_KEYS = frozenset({
    "preset", "seed", "a", "c", "d", "r", "N", "ns", "mode", "x0", "tol",
    "window_length", "window_lengths", "frequencies", "freq_min",
    "freq_max", "t0", "t1", "T", "initial", "target", "omega_target", "Th",
    "T_sim", "draws"})
_MAX_N = (np.iinfo(np.intp).max - 2) // 4  # 2(2N+1) coefficients indexable


def _int(key: str, val, minimum: int | None = 0,
         maximum: int | None = None) -> int:
    """An integer config value (integral floats pass) within the bounds."""
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{key} must be <= {maximum}")
    return val


def _float(key: str, val, positive: bool = False) -> float:
    """A finite float config value, strictly positive when asked.  The
    bound compares JSON integers exactly, beyond the float range too."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {val!r}")
    if positive and not val > 0:
        raise ConfigError(f"{key} must be positive, got {val!r}")
    return float(val)


def _x0(cfg: dict) -> float:
    """x0 within [-2 pi, 2 pi], which holds every point of the circle."""
    x0 = cfg.get("x0", 0.0)
    if isinstance(x0, bool) or not isinstance(x0, (int, float)) \
            or not abs(x0) <= 2 * np.pi:
        raise ConfigError(f"x0 must lie in [-2π, 2π], got {x0!r}")
    return float(x0)


def _mode(cfg: dict, aliases: dict) -> str:
    """Mode from its short alias or its full name."""
    mode = cfg.get("mode", "both")
    mode = aliases.get(mode, mode) if isinstance(mode, str) else mode
    if mode not in aliases.values():
        raise ConfigError(f"unknown mode {mode!r}; expected one of "
                          f"{', '.join(aliases)}")
    return mode


def _list(cfg: dict, key: str) -> list:
    val = cfg.get(key) or []
    if not isinstance(val, list):
        raise ConfigError(f"{key} must be a list, got {val!r}")
    return val


def _params_from(cfg: dict) -> spectral.PhysicalParams:
    preset = cfg.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in spectral.PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        return spectral.PRESETS[preset]
    return spectral.PhysicalParams(*(
        _float(key, cfg.get(key, 1.0), positive=True) for key in "acdr"))


def _state_from(spec_val, N: int, rng: np.random.Generator) -> modal.ModalState:
    if spec_val in (None, "zero"):
        return modal.ModalState.zeros(N)
    if spec_val == "random":
        return modal.ModalState.random(N, rng)
    if isinstance(spec_val, list):
        if not all(isinstance(c, list) and len(c) == 2 for c in spec_val):
            raise ConfigError("state coefficients must be [re, im] pairs")
        flat = np.array([complex(_float("state", re), _float("state", im))
                         for re, im in spec_val])
        if len(flat) != 2 * (2 * N + 1):
            raise ConfigError("state coefficient list has wrong length")
        return modal.ModalState(N, flat.reshape(2, 2 * N + 1))
    raise ConfigError(f"cannot interpret state spec {spec_val!r}")


def _signal_terms(sig) -> list[dict]:
    if not sig:
        return []
    return [{"amp_re": float(np.real(a)), "amp_im": float(np.imag(a)),
             "freq": float(f), "degree": int(d)} for a, f, d in sig.terms]


def cmd_spectrum(cfg, params, out: Path, quiet: bool) -> int:
    N = _int("N", cfg.get("N", 8), maximum=_MAX_N)
    table = spectral.spectrum_table(params, N)
    rows = []
    for b in (spectral.Branch.PLUS, spectral.Branch.MINUS):
        for k in table.ks:
            col = k + N
            z = table.z[b, col]
            rows.append((str(int(k)), str(b), table.omega[b, col],
                         z[0], 0.0, z[1], 0.0))
    _write_csv(out / "spectrum.csv",
               ["k", "branch", "omega", "z1_re", "z1_im", "z2_re", "z2_im"],
               rows)
    return 0


def cmd_gaps(cfg, params, out: Path, quiet: bool) -> int:
    N = _int("N", cfg.get("N", 200), minimum=2, maximum=_MAX_N)
    report = spectral.gap_report(params, N)
    rows = []
    ks = np.arange(-N, N)
    for k, gp in zip(ks, report.plus_gaps):
        rows.append((str(int(k)), "+", gp))
    for k, gm in zip(ks, report.minus_gaps):
        rows.append((str(int(k)), "-", gm))
    _write_csv(out / "gaps.csv", ["k", "branch", "gap"], rows)
    _write_json(out / "gaps_summary.json", {
        "N": N,
        "A_const": report.A_const,
        "B_or_slope": report.B_or_slope,
        "gamma_inf_estimate": report.gamma_inf_estimate,
        "D_plus_estimate": report.D_plus_estimate,
        "T0": report.T0,
    })
    return 0


def cmd_resonance(cfg, params, out: Path, quiet: bool) -> int:
    N = _int("N", cfg.get("N", 12), maximum=_MAX_N)
    tol = _float("tol", cfg.get("tol", 1e-9), positive=True)
    report = spectral.resonance_check(params, N, tol)
    rows = [(str(k1), str(b1), str(k2), str(b2))
            for (k1, b1), (k2, b2) in report.violations]
    _write_csv(out / "resonance.csv",
               ["k1", "branch1", "k2", "branch2"], rows)
    if not quiet:
        print(f"resonance pairs within {tol}: {len(rows)}")
    return 0


def cmd_observe(cfg, params, out: Path, quiet: bool) -> int:
    ns = [_int("ns", N, maximum=_MAX_N) for N in _list(cfg, "ns")] \
        or [_int("N", cfg.get("N", 8), maximum=_MAX_N)]
    mode = _mode(cfg, {"both": "both", "u": "u_only", "v": "v_only"})
    lengths = [_float("window_lengths", length, positive=True)
               for length in _list(cfg, "window_lengths")] \
        or [_float("window_length", cfg.get("window_length", 1.0),
                   positive=True)]
    x0 = _x0(cfg)
    rows = []
    for N in ns:
        for length in lengths:
            window = gram.ObservationWindow(0.0, length)
            rep = gram.observability_constants(params, N, x0, window, mode)
            rows.append((str(N), length, mode, rep.alpha, rep.beta,
                         str(rep.kernel_dim)))
    _write_csv(out / "observability.csv",
               ["N", "window_length", "mode", "alpha", "beta", "kernel_dim"],
               rows)
    return 0


def cmd_ingham(cfg, params, out: Path, quiet: bool) -> int:
    if "frequencies" in cfg:
        freqs = [_float("frequencies", f) for f in _list(cfg, "frequencies")]
        if not freqs:
            raise ConfigError("frequencies must be a nonempty list")
    else:
        lo = _int("freq_min", cfg.get("freq_min", -5), minimum=None)
        hi = _int("freq_max", cfg.get("freq_max", 5), minimum=lo)
        freqs = list(range(lo, hi + 1))
    t0 = _float("t0", cfg.get("t0", 0.0))
    t1 = _float("t1", cfg.get("t1", 2 * np.pi))
    if not t1 > t0:
        raise ConfigError(f"window needs t1 > t0, got t0={t0!r}, t1={t1!r}")
    window = gram.ObservationWindow(t0, t1)
    try:
        direct, inverse = gram.ingham_report(freqs, window)
    except ValueError as exc:  # repeated frequencies, overflowing window
        raise ConfigError(str(exc)) from exc
    _write_csv(out / "ingham.csv",
               ["family_size", "window_length", "direct_const", "inverse_const"],
               [(str(len(freqs)), window.length, direct, inverse)])
    return 0


def cmd_control(cfg, params, out: Path, quiet: bool) -> int:
    N = _int("N", cfg.get("N", 6), maximum=_MAX_N)
    x0 = _x0(cfg)
    T0 = spectral.critical_time(params)
    T = _float("T", cfg.get("T", 1.2 * T0 if T0 else 1.0), positive=True)
    mode = _mode(cfg, {"both": "both", "f": "f_only", "g": "g_only"})
    rng = np.random.default_rng(_int("seed", cfg.get("seed", 0)))
    initial = _state_from(cfg.get("initial", "random"), N, rng)
    target = _state_from(cfg.get("target", "zero"), N, rng)
    try:
        system = hum.assemble_lambda(params, N, x0, T, mode)
    except ValueError as exc:  # the horizon overflows the operator
        raise ConfigError(str(exc)) from exc
    plan = hum.solve_control(params, N, x0, T, initial, target, mode, system)
    error = hum.verify_roundtrip(params, N, plan, initial, target)
    _write_json(out / "plan.json", {
        "mode": mode, "N": N, "x0": x0, "T": T,
        "f": _signal_terms(plan.f), "g": _signal_terms(plan.g),
        "cost": hum.control_cost(plan),
    })
    _write_csv(out / "verify.csv",
               ["N", "T", "mode", "relative_error"],
               [(str(N), T, mode, error)])
    if not quiet:
        print(f"round-trip relative error {error:.3e}")
    return 0


def cmd_stabilize(cfg, params, out: Path, quiet: bool) -> int:
    N = _int("N", cfg.get("N", 6), maximum=_MAX_N)
    x0 = _x0(cfg)
    omega_target = _float("omega_target", cfg.get("omega_target", 0.5))
    T0 = spectral.critical_time(params)
    Th = _float("Th", cfg.get("Th", 1.5 * T0 if T0 else 2.0))
    T_sim = _float("T_sim", cfg.get("T_sim", 20.0), positive=True)
    rng = np.random.default_rng(_int("seed", cfg.get("seed", 0)))
    state0 = _state_from(cfg.get("initial", "random"), N, rng)
    try:
        gains = stabilize.feedback_gains(params, N, x0, omega_target, Th)
        report = stabilize.closed_loop_simulate(params, N, gains, state0,
                                                T_sim)
    except np.linalg.LinAlgError:  # a ValueError, but not a config error
        raise
    except ValueError as exc:  # rate, horizons, resonance, zero state, fit
        raise ConfigError(str(exc)) from exc
    _write_csv(out / "decay.csv", ["t", "energy", "log_energy"],
               [(t, e, np.log(max(e, 1e-300)))
                for t, e in zip(report.times, report.energies)])
    _write_json(out / "stabilize_summary.json", {
        "omega_target": omega_target,
        "fitted_rate": report.fitted_decay_rate,
        "fitted_M": report.fitted_M,
        "abscissa": report.abscissa,
    })
    return 0


def cmd_duality(cfg, params, out: Path, quiet: bool) -> int:
    N = _int("N", cfg.get("N", 6), maximum=_MAX_N)
    x0 = _x0(cfg)
    T = _float("T", cfg.get("T", 1.0))
    draws = _int("draws", cfg.get("draws", 5))
    rng = np.random.default_rng(_int("seed", cfg.get("seed", 0)))
    from .signals import ExponentialSignal
    rows = []
    for i in range(draws):
        initial = modal.ModalState.random(N, rng)
        seed_state = modal.ModalState.random(N, rng)
        f = ExponentialSignal.from_terms(
            [(rng.standard_normal() + 1j * rng.standard_normal(),
              rng.uniform(-5, 5), 0) for _ in range(3)])
        g = ExponentialSignal.from_terms(
            [(rng.standard_normal() + 1j * rng.standard_normal(),
              rng.uniform(-5, 5), 0) for _ in range(3)])
        res = hum.duality_residual(params, N, f, g, x0, initial, seed_state, T)
        rows.append((str(i), res))
    _write_csv(out / "duality.csv", ["draw", "residual"], rows)
    return 0


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "gaps": cmd_gaps,
    "resonance": cmd_resonance,
    "observe": cmd_observe,
    "ingham": cmd_ingham,
    "control": cmd_control,
    "stabilize": cmd_stabilize,
    "duality": cmd_duality,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ggkdv", description="coupled-KdV pointwise control experiments")
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", type=Path, help="flat JSON config file")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory")
    parser.add_argument("--preset", choices=sorted(spectral.PRESETS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = {}
        if args.config is not None:
            try:
                cfg = json.loads(args.config.read_text())
            except (OSError, ValueError) as exc:  # not JSON, or too many digits
                raise ConfigError(f"cannot read config: {exc}") from exc
            if not isinstance(cfg, dict):
                raise ConfigError("config must be a JSON object")
            unknown = sorted(set(cfg) - _KEYS)
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r}")
        if args.preset is not None:
            cfg["preset"] = args.preset
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = args.out
        out.mkdir(parents=True, exist_ok=True)

        params = _params_from(cfg)
        if params.resonant:
            print(f"warning: resonant parameters (a*d=1); critical time "
                  f"T0={spectral.critical_time(params):.6g}", file=sys.stderr)

        return _DISPATCH[args.command](cfg, params, out, args.quiet)
    except ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    except IllConditioned as exc:
        print(f"ill-conditioned: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, GGKdVError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

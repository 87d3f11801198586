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
from .signals import ExponentialSignal


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


_FINITE = (-sys.float_info.max, sys.float_info.max)
_POSITIVE = (5e-324, sys.float_info.max)  # 5e-324: the least positive float
_MAX_N = (np.iinfo(np.intp).max - 2) // 4  # 2(2N+1) coefficients indexable

#: Every config key that some command reads, as (kind, low, high); any other
#: key is a typo.  The bounds are inclusive, hold for every entry of a list
#: and every coefficient of a state, and compare JSON integers exactly,
#: beyond the float range too.  ``preset`` and ``seed`` are also set by the
#: global flags; each command checks ``mode`` against its own names.
_KEYS = {
    "preset": ("preset", None, None),
    "mode": ("mode", None, None),
    **dict.fromkeys(("initial", "target"), ("state", *_FINITE)),
    "seed": ("integer", 0, np.inf),
    "N": ("integer", 0, _MAX_N),
    "ns": ("integer list", 0, _MAX_N),
    # each bound keeps a run to seconds: 10^4 draws, or 2049 frequencies
    "draws": ("integer", 0, 10_000),
    **dict.fromkeys(("freq_min", "freq_max"), ("integer", -1024, 1024)),
    "x0": ("number", -2 * np.pi, 2 * np.pi),
    **dict.fromkeys(("a", "c", "d", "r", "tol", "window_length", "T_sim"),
                    ("number", *_POSITIVE)),
    "window_lengths": ("number list", *_POSITIVE),
    **dict.fromkeys(("t0", "t1", "T", "omega_target", "Th"),
                    ("number", *_FINITE)),
    "frequencies": ("number list", *_FINITE),
}


def _get(cfg: dict, key: str, default):
    """``cfg[key]`` checked against its row of ``_KEYS``, or ``default``
    when the config does not set it.  Numbers come back as floats."""
    if key not in cfg:
        return default
    val, (kind, lo, hi) = cfg[key], _KEYS[key]
    if kind == "preset":
        if val is None or isinstance(val, str) and val in spectral.PRESETS:
            return val
        raise ConfigError(f"unknown preset {val!r}")
    if kind == "mode" or kind == "state" and val in (None, "zero", "random"):
        return val
    if kind == "state":
        if not isinstance(val, list) or not all(
                isinstance(c, list) and len(c) == 2 for c in val):
            raise ConfigError(f"{key} must be zero, random or a list of "
                              f"[re, im] pairs, got {val!r}")
        return [[_scalar(key, "number", x, lo, hi) for x in c] for c in val]
    if kind.endswith(" list"):
        if not isinstance(val, list):
            raise ConfigError(f"{key} must be a list, got {val!r}")
        return [_scalar(key, kind[:-5], x, lo, hi) for x in val]
    return _scalar(key, kind, val, lo, hi)


def _scalar(key: str, kind: str, val, lo, hi):
    """An integer (integral floats pass) or a number within [lo, hi]."""
    if kind == "integer" and isinstance(val, float) and val.is_integer():
        val = int(val)
    if isinstance(val, bool) \
            or not isinstance(val, int if kind == "integer" else (int, float)) \
            or not lo <= val <= hi:
        raise ConfigError(f"{key} takes {kind}s in [{lo!r}, {hi!r}], "
                          f"got {val!r}")
    return val if kind == "integer" else float(val)


def _mode(cfg: dict, aliases: dict) -> str:
    """Mode from its short alias or its full name."""
    mode = _get(cfg, "mode", "both")
    mode = aliases.get(mode, mode) if isinstance(mode, str) else mode
    if mode not in aliases.values():
        raise ConfigError(f"unknown mode {mode!r}; expected one of "
                          f"{', '.join(aliases)}")
    return mode


def _params_from(cfg: dict) -> spectral.PhysicalParams:
    preset = _get(cfg, "preset", None)
    if preset is not None:
        return spectral.PRESETS[preset]
    return spectral.PhysicalParams(*(_get(cfg, key, 1.0) for key in "acdr"))


def _state_from(spec_val, N: int, rng: np.random.Generator) -> modal.ModalState:
    """A state from its ``_get`` value."""
    if spec_val in (None, "zero"):
        return modal.ModalState.zeros(N)
    if spec_val == "random":
        return modal.ModalState.random(N, rng)
    if len(spec_val) != 2 * (2 * N + 1):
        raise ConfigError("state coefficient list has wrong length")
    flat = np.array([complex(re, im) for re, im in spec_val])
    return modal.ModalState(N, flat.reshape(2, 2 * N + 1))


def _signal_terms(sig) -> list[dict]:
    if not sig:
        return []
    return [{"amp_re": float(np.real(a)), "amp_im": float(np.imag(a)),
             "freq": float(f), "degree": int(d)} for a, f, d in sig.terms]


def cmd_spectrum(cfg, params, out: Path, quiet: bool) -> int:
    N = _get(cfg, "N", 8)
    table = spectral.spectrum_table(params, N)
    rows = [(str(j - N), str(b), table.omega[b, j], table.z[b, j, 0], 0.0,
             table.z[b, j, 1], 0.0)
            for b in spectral.Branch for j in range(2 * N + 1)]
    _write_csv(out / "spectrum.csv",
               ["k", "branch", "omega", "z1_re", "z1_im", "z2_re", "z2_im"],
               rows)
    return 0


def cmd_gaps(cfg, params, out: Path, quiet: bool) -> int:
    N = _get(cfg, "N", 200)
    report = spectral.gap_report(params, N)
    rows = [(str(k), b, gap)
            for b, gaps in (("+", report.plus_gaps), ("-", report.minus_gaps))
            for k, gap in zip(range(-N, N), gaps)]
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
    N = _get(cfg, "N", 12)
    tol = _get(cfg, "tol", 1e-9)
    report = spectral.resonance_check(params, N, tol)
    rows = [(str(k1), str(b1), str(k2), str(b2))
            for (k1, b1), (k2, b2) in report.violations]
    _write_csv(out / "resonance.csv",
               ["k1", "branch1", "k2", "branch2"], rows)
    if not quiet:
        print(f"resonance pairs within {tol}: {len(rows)}")
    return 0


def cmd_observe(cfg, params, out: Path, quiet: bool) -> int:
    ns = _get(cfg, "ns", []) or [_get(cfg, "N", 8)]
    mode = _mode(cfg, {"both": "both", "u": "u_only", "v": "v_only"})
    lengths = _get(cfg, "window_lengths", []) \
        or [_get(cfg, "window_length", 1.0)]
    x0 = _get(cfg, "x0", 0.0)
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
    freqs = _get(cfg, "frequencies", None)
    if freqs is None:
        freqs = list(range(_get(cfg, "freq_min", -5),
                           _get(cfg, "freq_max", 5) + 1))
    window = gram.ObservationWindow(_get(cfg, "t0", 0.0),
                                    _get(cfg, "t1", 2 * np.pi))
    direct, inverse = gram.ingham_report(freqs, window)
    _write_csv(out / "ingham.csv",
               ["family_size", "window_length", "direct_const", "inverse_const"],
               [(str(len(freqs)), window.length, direct, inverse)])
    return 0


def cmd_control(cfg, params, out: Path, quiet: bool) -> int:
    N = _get(cfg, "N", 6)
    x0 = _get(cfg, "x0", 0.0)
    T0 = spectral.critical_time(params)
    T = _get(cfg, "T", 1.2 * T0 if T0 else 1.0)
    mode = _mode(cfg, {"both": "both", "f": "f_only", "g": "g_only"})
    rng = np.random.default_rng(_get(cfg, "seed", 0))
    initial = _state_from(_get(cfg, "initial", "random"), N, rng)
    target = _state_from(_get(cfg, "target", "zero"), N, rng)
    system = hum.assemble_lambda(params, N, x0, T, mode)
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
    N = _get(cfg, "N", 6)
    x0 = _get(cfg, "x0", 0.0)
    omega_target = _get(cfg, "omega_target", 0.5)
    T0 = spectral.critical_time(params)
    Th = _get(cfg, "Th", 1.5 * T0 if T0 else 2.0)
    T_sim = _get(cfg, "T_sim", 20.0)
    rng = np.random.default_rng(_get(cfg, "seed", 0))
    state0 = _state_from(_get(cfg, "initial", "random"), N, rng)
    gains = stabilize.feedback_gains(params, N, x0, omega_target, Th)
    report = stabilize.closed_loop_simulate(params, N, gains, state0, T_sim)
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
    N = _get(cfg, "N", 6)
    x0 = _get(cfg, "x0", 0.0)
    T = _get(cfg, "T", 1.0)
    draws = _get(cfg, "draws", 5)
    rng = np.random.default_rng(_get(cfg, "seed", 0))
    rows = []
    for i in range(draws):
        initial = modal.ModalState.random(N, rng)
        seed_state = modal.ModalState.random(N, rng)
        f, g = (ExponentialSignal.from_terms(
            [(rng.standard_normal() + 1j * rng.standard_normal(),
              rng.uniform(-5, 5), 0) for _ in range(3)]) for _ in "fg")
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
            unknown = sorted(cfg.keys() - _KEYS.keys())
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r}")
        if args.preset is not None:
            cfg["preset"] = args.preset
        if args.seed is not None:
            cfg["seed"] = args.seed
        args.out.mkdir(parents=True, exist_ok=True)
        params = _params_from(cfg)
        if params.resonant:
            print(f"warning: resonant parameters (a*d=1); critical time "
                  f"T0={spectral.critical_time(params):.6g}", file=sys.stderr)
        return _DISPATCH[args.command](cfg, params, args.out, args.quiet)
    except ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    except IllConditioned as exc:
        print(f"ill-conditioned: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, GGKdVError, MemoryError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

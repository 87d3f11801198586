"""End-to-end acceptance suite: one test per headline claim, each printing
a single PASS line with the measured margin."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ggkdv.cli import main as cli_main
from ggkdv.errors import ConstraintViolation
from ggkdv.gram import ObservationWindow, ingham_report, observability_constants
from ggkdv.hum import (
    bilinear_pairing,
    reachable_defect,
    solve_control,
    verify_roundtrip,
)
from ggkdv.modal import (
    ModalState,
    energy,
    evolve,
    forced_evolve,
    h_norm,
    reconstruct,
    trace,
    u_mean,
    v_mean,
)
from ggkdv.spectral import (
    PRESETS,
    PhysicalParams,
    critical_time,
    gap_report,
    spectrum_table,
    symbol_matrix,
)
from ggkdv.stabilize import (
    closed_loop_simulate,
    feedback_gains,
    zero_gains,
)

GENERIC = PRESETS["generic"]
RESONANT = PRESETS["resonant"]


def unit_energy_state(params, N, rng):
    s = ModalState.random(N, rng)
    return s.scaled(1.0 / h_norm(params, s))


def char_poly_residual(params, k, omega):
    a, c, d, r = params.a, params.c, params.d, params.r
    terms = [c * omega**2, (r * k - (c + 1) * k**3) * omega,
             (1 - a * d) * k**6, -r * k**4]
    return abs(sum(terms)) / max(1.0, *(abs(t) for t in terms))


def test_criterion_01_spectral_correctness():
    worst_poly = worst_rel = worst_orth = 0.0
    for p in (GENERIC, RESONANT):
        t = spectrum_table(p, 64)
        for k in range(-64, 65):
            S = symbol_matrix(p, k)
            for omega, z in zip(t.omega[:, k + t.N], t.z[:, k + t.N]):
                worst_poly = max(worst_poly, char_poly_residual(p, k, omega))
                res = np.linalg.norm(S @ z - omega * z)
                scale = max(1.0, abs(omega)) * np.linalg.norm(z)
                worst_rel = max(worst_rel, res / scale)
            zp, zm = t.z[:, k + t.N]
            ip = abs(zp[0] * np.conj(zm[0]) + p.weight * zp[1] * np.conj(zm[1]))
            worst_orth = max(worst_orth, ip / (np.linalg.norm(zp)
                                               * np.linalg.norm(zm)))
    assert worst_poly <= 1e-9
    assert worst_rel <= 1e-10
    assert worst_orth <= 1e-12
    worst_eig = 0.0
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = PhysicalParams(*np.exp(rng.uniform(-1.5, 1.5, size=4)))
        k = int(rng.integers(-64, 65))
        t = spectrum_table(p, abs(k))
        wp, wm = t.omega[:, k + t.N]
        ev = np.sort(np.linalg.eigvals(symbol_matrix(p, k)).real)
        scale = max(1.0, abs(wp), abs(wm))
        worst_eig = max(worst_eig,
                        abs(ev[1] - max(wp, wm)) / scale,
                        abs(ev[0] - min(wp, wm)) / scale)
    assert worst_eig <= 1e-10
    print(f"criterion 1: PASS — char-poly {worst_poly:.2e} (<=1e-9), "
          f"eigenrelation {worst_rel:.2e} (<=1e-10), "
          f"orthogonality {worst_orth:.2e} (<=1e-12), "
          f"numeric cross-check {worst_eig:.2e} (<=1e-10)")


def test_criterion_02_gap_asymptotics():
    rep = gap_report(GENERIC, 102)
    t = spectrum_table(GENERIC, 101)
    gp = t.omega[0, 101 + t.N] - t.omega[0, 100 + t.N]
    ratio = gp / (3 * rep.A_const * 100**2)
    assert abs(ratio - 1) <= 0.02
    t = spectrum_table(RESONANT, 201)
    gm = t.omega[1, 201 + t.N] - t.omega[1, 200 + t.N]
    assert abs(gm - (-0.5)) <= 0.05
    dens = gap_report(RESONANT, 400).D_plus_estimate
    assert abs(dens - 2.0) <= 0.2
    print(f"criterion 2: PASS — plus-gap ratio {ratio:.4f} (2%), "
          f"minus gap {gm:.6f} (-0.5 +/- 0.05), "
          f"density {dens:.4f} (2 +/- 10%)")


def test_criterion_03_free_evolution():
    worst_e = worst_g = 0.0
    rng = np.random.default_rng(0)
    N = 8
    for p in (GENERIC, RESONANT):
        state = unit_energy_state(p, N, rng)
        e0 = energy(p, state)
        for t in (0.1, 1.0, 10.0):
            worst_e = max(worst_e, abs(energy(p, evolve(p, state, t)) - e0) / e0)
            for s in (0.3, -0.7):
                two_step = evolve(p, evolve(p, state, t), s)
                one_step = evolve(p, state, t + s)
                worst_g = max(worst_g, h_norm(p, two_step - one_step))
    assert worst_e <= 1e-12
    assert worst_g <= 1e-12
    print(f"criterion 3: PASS — energy drift {worst_e:.2e} (<=1e-12), "
          f"group law {worst_g:.2e} (<=1e-12)")


def test_criterion_04_duality_identity():
    from ggkdv.signals import ExponentialSignal
    rng = np.random.default_rng(4)
    N, T, x0 = 6, 1.0, 0.0
    worst_closed = worst_quad = 0.0
    for _ in range(20):
        initial = ModalState.random(N, rng)
        seed = ModalState.random(N, rng)
        f = ExponentialSignal.from_terms(
            [(rng.standard_normal() + 1j * rng.standard_normal(),
              rng.uniform(-5, 5), 0) for _ in range(3)])
        g = ExponentialSignal.from_terms(
            [(rng.standard_normal() + 1j * rng.standard_normal(),
              rng.uniform(-5, 5), 0) for _ in range(3)])
        final = forced_evolve(GENERIC, N, initial, f, g, x0, T)
        lhs = bilinear_pairing(GENERIC, final, evolve(GENERIC, seed, T))
        phi, psi = trace(GENERIC, seed, x0, adjoint=True)
        base = bilinear_pairing(GENERIC, initial, seed)
        rhs_closed = (base + f.bilinear_integral(phi, 0.0, T)
                      + g.bilinear_integral(psi, 0.0, T))

        def integrand(t):
            return f.evaluate(t) * phi.evaluate(t) + g.evaluate(t) * psi.evaluate(t)

        re, _ = quad(lambda t: integrand(t).real, 0.0, T, limit=200)
        im, _ = quad(lambda t: integrand(t).imag, 0.0, T, limit=200)
        rhs_quad = base + re + 1j * im
        scale = max(abs(lhs), abs(rhs_closed), energy(GENERIC, initial),
                    energy(GENERIC, seed), 1.0)
        worst_closed = max(worst_closed, abs(lhs - rhs_closed) / scale)
        worst_quad = max(worst_quad, abs(lhs - rhs_quad) / scale)
    assert worst_closed <= 1e-9
    assert worst_quad <= 1e-7
    print(f"criterion 4: PASS — duality residual closed-form "
          f"{worst_closed:.2e} (<=1e-9), quadrature {worst_quad:.2e} (<=1e-7)")


def test_criterion_05_two_control_roundtrip():
    rng = np.random.default_rng(5)
    N = 6
    worst_gen = 0.0
    for _ in range(10):
        initial = unit_energy_state(GENERIC, N, rng)
        target = unit_energy_state(GENERIC, N, rng)
        plan = solve_control(GENERIC, N, 0.0, 1.0, initial, target)
        worst_gen = max(worst_gen,
                        verify_roundtrip(GENERIC, N, plan, initial, target))
    assert worst_gen <= 1e-8
    T = 4.8 * math.pi
    assert T > critical_time(RESONANT)
    worst_res = 0.0
    for _ in range(10):
        initial = unit_energy_state(RESONANT, N, rng)
        target = unit_energy_state(RESONANT, N, rng)
        plan = solve_control(RESONANT, N, 0.0, T, initial, target)
        worst_res = max(worst_res,
                        verify_roundtrip(RESONANT, N, plan, initial, target))
    assert worst_res <= 1e-8
    print(f"criterion 5: PASS — round-trip generic {worst_gen:.2e}, "
          f"resonant (T=4.8pi) {worst_res:.2e} (<=1e-8)")


def test_criterion_06_critical_time_threshold():
    T0 = critical_time(RESONANT)
    ns = (4, 8, 16, 32)
    short = [observability_constants(RESONANT, n, 0.0,
                                     ObservationWindow(0.0, 0.5 * T0)).alpha
             for n in ns]
    assert all(b <= a for a, b in zip(short, short[1:]))
    assert short[-1] <= 0.1 * short[0]
    long = [observability_constants(RESONANT, n, 0.0,
                                    ObservationWindow(0.0, 1.5 * T0)).alpha
            for n in ns]
    assert long[-1] >= 0.5 * long[0]
    print(f"criterion 6: PASS — alpha at 0.5*T0 decays "
          f"{short[0]:.2e} -> {short[-1]:.2e} (ratio <=0.1); "
          f"at 1.5*T0 ratio {long[-1] / long[0]:.3f} (>=0.5)")


def test_criterion_07_single_trace_kernel():
    N = 6
    cases = [(GENERIC, 1.0), (RESONANT, 1.5 * critical_time(RESONANT))]
    for params, length in cases:
        for mode in ("u_only", "v_only"):
            rep = observability_constants(params, N, 0.0,
                                          ObservationWindow(0.0, length), mode)
            assert rep.kernel_dim == 1
            ker = ModalState(N, rep.kernel_vectors[:, 0].reshape(2, 2 * N + 1))
            fields = reconstruct(params, ker, 256)
            u, v = fields.u, fields.v
            scale = max(1.0, np.max(np.abs(u)), np.max(np.abs(v)))
            if mode == "u_only":
                # unobserved direction: u vanishes, v is constant
                assert np.max(np.abs(u)) <= 1e-10 * scale
                assert np.max(np.abs(v - v.mean())) <= 1e-10 * scale
            else:
                assert np.max(np.abs(v)) <= 1e-10 * scale
                assert np.max(np.abs(u - u.mean())) <= 1e-10 * scale
    print("criterion 7: PASS — u-only and v-only kernels are "
          "one-dimensional constants in the complementary field "
          "(both presets, fields within 1e-10)")


def test_criterion_08_single_control():
    rng = np.random.default_rng(8)
    N, T = 6, 1.0
    dim = 2 * (2 * N + 1)
    seed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    defect = reachable_defect(GENERIC, N, 0.0, T, "g_only", seed)
    target = unit_energy_state(GENERIC, N, rng)
    initial = defect + evolve(GENERIC, target, -T)
    assert abs(u_mean(GENERIC, initial) - u_mean(GENERIC, target)) <= 1e-10
    plan = solve_control(GENERIC, N, 0.0, T, initial, target, "g_only")
    err = verify_roundtrip(GENERIC, N, plan, initial, target)
    assert err <= 1e-7

    bad = unit_energy_state(GENERIC, N, rng)
    with pytest.raises(ConstraintViolation):
        solve_control(GENERIC, N, 0.0, T, bad, ModalState.zeros(N), "g_only")

    seed_f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    init_f = reachable_defect(GENERIC, N, 0.0, T, "f_only", seed_f)
    plan_f = solve_control(GENERIC, N, 0.0, T, init_f, ModalState.zeros(N),
                           "f_only")
    drift = max(abs(v_mean(GENERIC,
                           forced_evolve(GENERIC, N, init_f, plan_f.f, None,
                                         0.0, t))
                    - v_mean(GENERIC, init_f))
                for t in np.linspace(0.1, T, 6))
    assert drift <= 1e-10
    print(f"criterion 8: PASS — g-only round-trip {err:.2e} (<=1e-7), "
          f"mean mismatch rejected, f-only v-mean drift {drift:.2e} (<=1e-10)")


def test_criterion_09_stabilization():
    rng = np.random.default_rng(9)
    N = 6
    state = unit_energy_state(GENERIC, N, rng)
    msgs = []
    for w in (0.25, 0.5, 1.0):
        gains = feedback_gains(GENERIC, N, 0.0, w, 2.0)
        rep = closed_loop_simulate(GENERIC, N, gains, state, T_sim=8.0)
        absc = rep.abscissa
        assert absc <= -0.9 * w
        assert rep.fitted_decay_rate >= 0.9 * w
        msgs.append(f"w={w}: abscissa {absc:.3f}, rate {rep.fitted_decay_rate:.3f}")
    free = closed_loop_simulate(GENERIC, N, zero_gains(GENERIC, N),
                                state, T_sim=20.0)
    drift = np.max(np.abs(free.energies - free.energies[0])) / free.energies[0]
    assert drift <= 1e-10
    print(f"criterion 9: PASS — {'; '.join(msgs)}; "
          f"zero-gain energy drift {drift:.2e} (<=1e-10)")


def test_criterion_10_exponential_family_constants():
    window = ObservationWindow(0.0, 2 * math.pi)
    direct, inverse = ingham_report(range(-5, 6), window)
    assert abs(direct - 2 * math.pi) <= 1e-12
    assert abs(inverse - 2 * math.pi) <= 1e-12
    short = ObservationWindow(0.0, 0.9 * 2 * math.pi)
    _, inv_small = ingham_report(range(-5, 6), short)
    _, inv_large = ingham_report(range(-20, 21), short)
    ratio = inv_large / inv_small
    assert ratio <= 0.2
    print(f"criterion 10: PASS — integer family on [0,2pi] "
          f"direct/inverse = 2pi within {max(abs(direct - 2 * math.pi), abs(inverse - 2 * math.pi)):.2e}; "
          f"sub-critical inverse ratio {ratio:.2e} (<=0.2)")


def test_criterion_11_cli_determinism(tmp_path):
    outs = []
    for sub in ("run1", "run2"):
        d = tmp_path / sub
        d.mkdir()
        cfg = d / "config.json"
        cfg.write_text(json.dumps({"preset": "generic", "N": 5, "T": 1.0,
                                   "seed": 11, "initial": "random",
                                   "target": "zero"}))
        for cmd in ("spectrum", "control", "stabilize", "duality"):
            assert cli_main([cmd, "--out", str(d), "--config", str(cfg),
                             "--quiet"]) == 0
        outs.append({p.name: p.read_bytes()
                     for p in sorted(d.iterdir()) if p.name != "config.json"})
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], name
    print(f"criterion 11: PASS — {len(outs[0])} artifacts byte-identical "
          f"across repeated seeded runs")

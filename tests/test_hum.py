import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from ggkdv.errors import ConstraintViolation, IllConditioned
from ggkdv.hum import (
    ERROR_EST_LIMIT,
    assemble_lambda,
    bilinear_pairing,
    control_cost,
    duality_residual,
    reachable_defect,
    solve_control,
    verify_roundtrip,
)
from ggkdv.modal import (
    ModalState,
    adjoint_trace,
    energy,
    evolve,
    forced_evolve,
    h_norm,
    u_mean,
    v_mean,
)
from ggkdv.signals import ExponentialSignal
from ggkdv.spectral import PRESETS, PhysicalParams, critical_time, spectrum_table

GENERIC = PRESETS["generic"]
RESONANT = PRESETS["resonant"]


def quad_integral(func, t0, t1):
    re, _ = quad(lambda t: func(t).real, t0, t1, limit=300)
    im, _ = quad(lambda t: func(t).imag, t0, t1, limit=300)
    return re + 1j * im


def unit_energy_state(params, N, rng):
    s = ModalState.random(N, rng)
    return s.scaled(1.0 / h_norm(params, s))


def match_u_mean(params, state, target_mean):
    """Adjust the k=0 plus coefficient so the u-mean hits target_mean."""
    out = state.copy()
    table = spectrum_table(params, state.N)
    col = state.N
    z1 = table.z[0, col, 0]  # equals 2ac on both branches
    current = u_mean(params, out)
    out.coeffs[0, col] += (target_mean - current) / (2 * np.pi * z1)
    return out


def match_v_mean(params, state, target_mean):
    """Adjust the k=0 plus coefficient so the v-mean hits target_mean."""
    out = state.copy()
    table = spectrum_table(params, state.N)
    col = state.N
    out.coeffs[0, col] += (target_mean - v_mean(params, out)) / (
        2 * np.pi * table.z[0, col, 1])
    return out


class TestAssembleLambda:
    def test_quadratic_form_equals_trace_energy(self):
        # s^H Lambda s = integral |phi|^2 + |psi|^2 for the adjoint state
        # seeded by conj(s); checked in closed form and by quadrature
        rng = np.random.default_rng(0)
        N, x0, T = 6, 0.4, 1.0
        system = assemble_lambda(GENERIC, N, x0, T)
        s = rng.standard_normal(2 * (2 * N + 1)) + 1j * rng.standard_normal(2 * (2 * N + 1))
        form = float(np.real(np.vdot(s, system.matrix @ s)))
        xi = ModalState(N, np.conj(s).reshape(2, 2 * N + 1))
        phi, psi = adjoint_trace(GENERIC, xi, x0)
        closed = phi.l2_norm_sq(0.0, T) + psi.l2_norm_sq(0.0, T)
        assert form == pytest.approx(closed, rel=1e-10)
        numeric = quad_integral(
            lambda t: abs(phi.evaluate(t)) ** 2 + abs(psi.evaluate(t)) ** 2,
            0.0, T).real
        assert form == pytest.approx(numeric, rel=1e-9)

    def test_generic_positive_definite(self):
        system = assemble_lambda(GENERIC, 6, 0.0, 1.0)
        assert system.eigvals()[0] > 0
        assert system.constraint is None

    def test_hermitian(self):
        m = assemble_lambda(GENERIC, 5, 0.3, 2.0).matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-13 * np.max(np.abs(m))

    def test_n0_linear_in_t(self):
        # the k=0 adjoint mode is frozen, so Lambda is exactly linear in T
        m1 = assemble_lambda(GENERIC, 0, 0.0, 1.0).matrix
        m3 = assemble_lambda(GENERIC, 0, 0.0, 3.0).matrix
        assert np.max(np.abs(m3 - 3 * m1)) <= 1e-12 * np.max(np.abs(m1))

    def test_single_mode_kernel_recorded(self):
        sysf = assemble_lambda(GENERIC, 4, 0.0, 1.0, "f_only")
        sysg = assemble_lambda(GENERIC, 4, 0.0, 1.0, "g_only")
        for system in (sysf, sysg):
            assert system.constraint is not None
            ker = system.constraint
            resid = np.linalg.norm(system.matrix @ ker)
            assert resid <= 1e-10 * np.max(np.abs(system.matrix))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            assemble_lambda(GENERIC, 4, 0.0, 1.0, "h_only")


class TestRealFactorization:
    """Lambda = D R D^H: the solves factor the real R, completed in single
    modes along the kernel direction v by sigma v v^T, sigma = trace(R) /
    (n - 1) the mean of the other eigenvalues."""

    @pytest.mark.parametrize("mode", ["both", "f_only", "g_only"])
    @pytest.mark.parametrize("x0", [0.0, 0.9365, 2.5])
    @pytest.mark.parametrize("N", [6, 16, 64])
    @pytest.mark.parametrize("preset", ["generic", "resonant"])
    def test_spectrum_matches_complex_lambda(self, preset, N, x0, mode):
        params = PRESETS[preset]
        T = 1.0 if preset == "generic" else 1.2 * critical_time(params)
        system = assemble_lambda(params, N, x0, T, mode)
        eps = np.finfo(float).eps
        ref = scipy.linalg.eigvalsh(system.matrix)
        vals = system.eigvals()
        assert vals[-1] == pytest.approx(ref[-1], rel=1e-14)
        assert np.max(np.abs(vals - ref)) <= 32 * eps * ref[-1]
        if mode != "both":
            P = scipy.linalg.null_space(system.constraint[None, :].conj())
            ref = scipy.linalg.eigvalsh(P.conj().T @ system.matrix @ P)
            vals = system._factorization.vals
            completed = np.sort(np.append(ref, ref.mean()))
            assert np.max(np.abs(vals - completed)) <= 32 * eps * ref[-1]
        # an error of 32 eps beta in alpha is 32 eps cond relative to alpha
        cond = ref[-1] / ref[0]
        assert system.condition_number() == pytest.approx(
            cond, rel=64 * eps * cond)

    @pytest.mark.parametrize("N", [0, 1, 3, 16, 64])
    @pytest.mark.parametrize("params", [
        GENERIC, RESONANT, PhysicalParams(0.37, 2.2, 1.3, 0.8)],
        ids=["generic", "resonant", "custom"])
    def test_kernel_columns_exact(self, params, N):
        # the completion needs R v = 0: Lambda's and R's k=0 columns are
        # equal (f_only) or opposite (g_only) bit for bit.  R @ v itself is
        # not asserted, since a fused multiply-add can leave 1e-17 in it
        T0 = critical_time(RESONANT)
        for mode in ("f_only", "g_only"):
            for x0 in (0.0, 0.9365, 2.5):
                for T in (0.3, 1.0, 1.2 * T0):
                    system = assemble_lambda(params, N, x0, T, mode)
                    v = system.constraint
                    a, b = np.flatnonzero(v)
                    sign = -v[b] / v[a]
                    R = system._real_form()[1]
                    for M in (system.matrix, R):
                        assert np.array_equal(M[:, a], sign * M[:, b])

    def test_resonant_roundtrip_digits(self):
        # refinement residuals against the complex Lambda over [0, T], whose
        # closed forms the Duhamel check shares, keep the round trip at a
        # few eps; residuals against R put the median here at 6e-15
        N, T = 32, 1.2 * critical_time(RESONANT)
        rng = np.random.default_rng(90)
        errors = []
        for mode in ("both", "f_only", "g_only"):
            system = assemble_lambda(RESONANT, N, 0.0, T, mode)
            for _ in range(10):
                initial = unit_energy_state(RESONANT, N, rng)
                target = unit_energy_state(RESONANT, N, rng)
                if mode == "g_only":
                    target = match_u_mean(RESONANT, target,
                                          u_mean(RESONANT, initial))
                elif mode == "f_only":
                    target = match_v_mean(RESONANT, target,
                                          v_mean(RESONANT, initial))
                plan = solve_control(RESONANT, N, 0.0, T, initial, target,
                                     mode, system=system)
                errors.append(verify_roundtrip(RESONANT, N, plan, initial,
                                               target))
        assert np.median(errors) <= 2e-15


class TestSolveControl:
    def test_free_trajectory_needs_no_control(self):
        rng = np.random.default_rng(1)
        N, T = 5, 1.0
        initial = unit_energy_state(GENERIC, N, rng)
        target = evolve(GENERIC, initial, T)
        plan = solve_control(GENERIC, N, 0.0, T, initial, target)
        assert np.linalg.norm(plan.adjoint_seed) <= 1e-12
        assert control_cost(plan) <= 1e-20

    def test_roundtrip_generic(self):
        rng = np.random.default_rng(2)
        N, T = 6, 1.0
        initial = unit_energy_state(GENERIC, N, rng)
        target = ModalState.zeros(N)
        plan = solve_control(GENERIC, N, 0.0, T, initial, target)
        assert verify_roundtrip(GENERIC, N, plan, initial, target) <= 1e-8

    def test_controls_reconstruct_from_adjoint_seed(self):
        # plan invariant: f = -conj(phi_xi(., x0)), g = -conj(psi_xi(., x0))
        rng = np.random.default_rng(3)
        N, x0, T = 5, 0.8, 1.5
        initial = unit_energy_state(GENERIC, N, rng)
        plan = solve_control(GENERIC, N, x0, T, initial, ModalState.zeros(N))
        xi = ModalState(N, plan.adjoint_seed.reshape(2, 2 * N + 1))
        phi, psi = adjoint_trace(GENERIC, xi, x0)
        t = np.linspace(0, T, 40)
        scale = max(1.0, np.max(np.abs(plan.f.evaluate(t))))
        assert np.max(np.abs(plan.f.evaluate(t) + np.conj(phi.evaluate(t)))) <= 1e-10 * scale
        assert np.max(np.abs(plan.g.evaluate(t) + np.conj(psi.evaluate(t)))) <= 1e-10 * scale

    def test_cost_equals_quadratic_form(self):
        # HUM optimality stationarity: cost = s^H Lambda s with the solved s
        rng = np.random.default_rng(4)
        N, T = 5, 1.0
        initial = unit_energy_state(GENERIC, N, rng)
        system = assemble_lambda(GENERIC, N, 0.0, T)
        plan = solve_control(GENERIC, N, 0.0, T, initial, ModalState.zeros(N),
                             system=system)
        s = np.conj(plan.adjoint_seed)
        form = float(np.real(np.vdot(s, system.matrix @ s)))
        assert control_cost(plan) == pytest.approx(form, rel=1e-9)

    def test_plan_linearity(self):
        rng = np.random.default_rng(5)
        N, T = 4, 1.0
        i1, i2 = (unit_energy_state(GENERIC, N, rng) for _ in range(2))
        t1, t2 = (unit_energy_state(GENERIC, N, rng) for _ in range(2))
        p1 = solve_control(GENERIC, N, 0.0, T, i1, t1)
        p2 = solve_control(GENERIC, N, 0.0, T, i2, t2)
        p12 = solve_control(GENERIC, N, 0.0, T, i1 + i2, t1 + t2)
        assert np.max(np.abs(p12.adjoint_seed - p1.adjoint_seed - p2.adjoint_seed)) \
            <= 1e-10 * max(1.0, np.max(np.abs(p12.adjoint_seed)))

    def test_g_only_with_matched_means(self):
        # data built from an O(1) adjoint seed: means match automatically
        # and the control cost stays moderate on this short window
        rng = np.random.default_rng(6)
        N, T = 6, 1.0
        dim = 2 * (2 * N + 1)
        seed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        defect = reachable_defect(GENERIC, N, 0.0, T, "g_only", seed)
        target = unit_energy_state(GENERIC, N, rng)
        initial = defect + evolve(GENERIC, target, -T)
        assert abs(u_mean(GENERIC, initial) - u_mean(GENERIC, target)) <= 1e-12
        plan = solve_control(GENERIC, N, 0.0, T, initial, target, "g_only")
        assert plan.f is None
        assert verify_roundtrip(GENERIC, N, plan, initial, target) <= 1e-7

    def test_g_only_generic_data_limited_by_conditioning(self):
        # with arbitrary mean-matched data the single-trace window T=1 sits
        # below the Ingham threshold: the restricted operator has condition
        # number ~1e12, the optimal controls have amplitude ~1e10, and the
        # round trip could only reach ~cond * eps; the solve refuses such a
        # plan instead of returning it
        rng = np.random.default_rng(60)
        N, T = 6, 1.0
        initial = unit_energy_state(GENERIC, N, rng)
        target = unit_energy_state(GENERIC, N, rng)
        target = match_u_mean(GENERIC, target, u_mean(GENERIC, initial))
        system = assemble_lambda(GENERIC, N, 0.0, T, "g_only")
        assert system.condition_number() > 1e10
        with pytest.raises(IllConditioned) as exc:
            solve_control(GENERIC, N, 0.0, T, initial, target, "g_only",
                          system=system)
        assert exc.value.condition_number > 1e10

    @pytest.mark.parametrize("data", ["reachable", "generic", "two_controls"])
    def test_error_estimate_bounds_roundtrip(self, data, monkeypatch):
        # the a-priori estimate eps * lambda_max * |s| / |rhs| bounds the
        # achieved round-trip error; generic single-control data exceeds
        # the limit, so with the limit in force it raises IllConditioned
        monkeypatch.setattr("ggkdv.hum.ERROR_EST_LIMIT", np.inf)
        rng = np.random.default_rng(61)
        N, T = 6, 1.0
        mode = "both" if data == "two_controls" else "g_only"
        target = unit_energy_state(GENERIC, N, rng)
        if data == "reachable":
            dim = 2 * (2 * N + 1)
            seed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            initial = (reachable_defect(GENERIC, N, 0.0, T, mode, seed)
                       + evolve(GENERIC, target, -T))
        else:
            initial = unit_energy_state(GENERIC, N, rng)
            target = match_u_mean(GENERIC, target, u_mean(GENERIC, initial))
        plan = solve_control(GENERIC, N, 0.0, T, initial, target, mode)
        err = verify_roundtrip(GENERIC, N, plan, initial, target)
        assert plan.error_estimate >= err
        if data == "generic":
            assert plan.error_estimate > ERROR_EST_LIMIT
        else:
            assert plan.error_estimate <= 0.1 * ERROR_EST_LIMIT

    def test_system_factored_once(self, monkeypatch):
        # repeated solves against one system reuse its eigenvalues and
        # Cholesky factor
        calls = []
        for name in ("eigvalsh", "cho_factor"):
            fn = getattr(scipy.linalg, name)
            monkeypatch.setattr(
                scipy.linalg, name,
                lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
        rng = np.random.default_rng(62)
        N, T = 5, 1.0
        system = assemble_lambda(GENERIC, N, 0.0, T, "f_only")
        for _ in range(3):
            dim = 2 * (2 * N + 1)
            seed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            initial = reachable_defect(GENERIC, N, 0.0, T, "f_only", seed,
                                       system=system)
            solve_control(GENERIC, N, 0.0, T, initial, ModalState.zeros(N),
                          "f_only", system=system)
        assert sorted(calls) == ["cho_factor", "eigvalsh"]

    def test_negative_horizon_rejected(self):
        # a Gram over (T, 0) has the opposite sign of the directed Duhamel
        # integral over [0, T]: such a plan missed its target by 2.0
        N = 8
        initial = ModalState.random(N, np.random.default_rng(3))
        with pytest.raises(ValueError, match="horizon must be positive"):
            solve_control(GENERIC, N, 0.0, -0.7, initial, ModalState.zeros(N))

    def test_overflowing_horizon_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            assemble_lambda(GENERIC, 6, 0.0, 1e200)

    def test_nonfinite_state_rejected(self):
        # a NaN defect must not come back as a NaN plan
        N = 4
        initial = ModalState.random(N, np.random.default_rng(4))
        initial.coeffs[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_control(GENERIC, N, 0.0, 1.0, initial, ModalState.zeros(N))

    def test_g_only_mean_violation_raises(self):
        rng = np.random.default_rng(7)
        N = 5
        initial = unit_energy_state(GENERIC, N, rng)
        with pytest.raises(ConstraintViolation):
            solve_control(GENERIC, N, 0.0, 1.0, initial, ModalState.zeros(N),
                          "g_only")

    def test_f_only_conserves_v_mean_along_trajectory(self):
        rng = np.random.default_rng(8)
        N, T = 5, 1.0
        dim = 2 * (2 * N + 1)
        seed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        # reachable data automatically has zero v-mean defect
        initial = reachable_defect(GENERIC, N, 0.0, T, "f_only", seed)
        assert abs(v_mean(GENERIC, initial)) <= 1e-12
        plan = solve_control(GENERIC, N, 0.0, T, initial, ModalState.zeros(N),
                             "f_only")
        assert plan.g is None
        assert verify_roundtrip(GENERIC, N, plan, initial, ModalState.zeros(N)) <= 1e-7
        for t in np.linspace(0.1, T, 6):
            state_t = forced_evolve(GENERIC, N, initial, plan.f, None, 0.0, t)
            drift = abs(v_mean(GENERIC, state_t) - v_mean(GENERIC, initial))
            assert drift <= 1e-10

    def test_resonant_above_critical_time(self):
        rng = np.random.default_rng(9)
        N = 6
        T = 1.2 * critical_time(RESONANT)
        initial = unit_energy_state(RESONANT, N, rng)
        target = unit_energy_state(RESONANT, N, rng)
        plan = solve_control(RESONANT, N, 0.0, T, initial, target)
        assert verify_roundtrip(RESONANT, N, plan, initial, target) <= 1e-8

    def test_resonant_short_window_ill_conditioned(self):
        rng = np.random.default_rng(10)
        initial = unit_energy_state(RESONANT, 16, rng)
        with pytest.raises(IllConditioned) as exc:
            solve_control(RESONANT, 16, 0.0, 0.5, initial, ModalState.zeros(16))
        assert exc.value.condition_number > 1e14

    def test_conditioning_sharp_at_critical_time(self):
        T0 = critical_time(RESONANT)
        c_short = assemble_lambda(RESONANT, 16, 0.0, 0.8 * T0).condition_number()
        c_long = assemble_lambda(RESONANT, 16, 0.0, 1.2 * T0).condition_number()
        assert c_short >= 1e3 * c_long


class TestVerifyRoundtrip:
    def test_zero_plan_free_target(self):
        rng = np.random.default_rng(11)
        N, T = 4, 1.0
        initial = unit_energy_state(GENERIC, N, rng)
        from ggkdv.hum import ControlPlan
        plan = ControlPlan(None, None, 0.0, T, np.zeros(2 * (2 * N + 1)), [])
        target = evolve(GENERIC, initial, T)
        assert verify_roundtrip(GENERIC, N, plan, initial, target) <= 1e-12

    def test_perturbed_control_misses(self):
        rng = np.random.default_rng(12)
        N, T = 5, 1.0
        initial = unit_energy_state(GENERIC, N, rng)
        plan = solve_control(GENERIC, N, 0.0, T, initial, ModalState.zeros(N))
        amp, freq, deg = plan.f.terms[0]
        bad_f = ExponentialSignal((( amp * 1.01, freq, deg),) + plan.f.terms[1:])
        from ggkdv.hum import ControlPlan
        bad = ControlPlan(bad_f, plan.g, plan.x0, plan.T, plan.adjoint_seed,
                          plan.labels)
        assert verify_roundtrip(GENERIC, N, bad, initial, ModalState.zeros(N)) > 1e-6


class TestDuality:
    def test_zero_controls_pairing_conserved(self):
        rng = np.random.default_rng(13)
        N, T = 6, 1.0
        initial = ModalState.random(N, rng)
        seed = ModalState.random(N, rng)
        assert duality_residual(GENERIC, N, None, None, 0.0, initial, seed, T) <= 1e-12

    def test_random_controls(self):
        rng = np.random.default_rng(14)
        N, T = 6, 1.0
        for _ in range(5):
            initial = ModalState.random(N, rng)
            seed = ModalState.random(N, rng)
            f = ExponentialSignal.from_terms(
                [(complex(*rng.standard_normal(2)), rng.uniform(-5, 5), 0)
                 for _ in range(3)])
            g = ExponentialSignal.from_terms(
                [(complex(*rng.standard_normal(2)), rng.uniform(-5, 5), 0)
                 for _ in range(3)])
            assert duality_residual(GENERIC, N, f, g, 0.3, initial, seed, T) <= 1e-9

    def test_backward_window(self):
        rng = np.random.default_rng(15)
        N = 5
        initial = ModalState.random(N, rng)
        seed = ModalState.random(N, rng)
        f = ExponentialSignal(((1.0 + 0.4j, 1.2, 0),))
        assert duality_residual(GENERIC, N, f, None, 0.0, initial, seed, -1.0) <= 1e-9

    def test_pairing_conserved_by_dual_flows(self):
        rng = np.random.default_rng(16)
        N = 6
        state = ModalState.random(N, rng)
        adj = ModalState.random(N, rng)
        p0 = bilinear_pairing(GENERIC, state, adj)
        for t in (0.5, -2.0):
            pt = bilinear_pairing(GENERIC, evolve(GENERIC, state, t),
                                  evolve(GENERIC, adj, t))
            assert abs(pt - p0) <= 1e-10 * max(1.0, abs(p0))

    def test_residual_against_quadrature(self):
        # re-derive the control-work term by numeric quadrature
        rng = np.random.default_rng(17)
        N, x0, T = 5, 0.2, 1.0
        initial = ModalState.random(N, rng)
        seed = ModalState.random(N, rng)
        f = ExponentialSignal.from_terms(
            [(complex(*rng.standard_normal(2)), rng.uniform(-4, 4), 0)
             for _ in range(2)])
        final = forced_evolve(GENERIC, N, initial, f, None, x0, T)
        lhs = bilinear_pairing(GENERIC, final, evolve(GENERIC, seed, T))
        phi, _ = adjoint_trace(GENERIC, seed, x0)
        work = quad_integral(lambda t: f.evaluate(t) * phi.evaluate(t), 0.0, T)
        rhs = bilinear_pairing(GENERIC, initial, seed) + work
        scale = max(abs(lhs), abs(rhs), energy(GENERIC, initial),
                    energy(GENERIC, seed), 1.0)
        assert abs(lhs - rhs) / scale <= 1e-7


class TestMemory:
    def test_roundtrip_and_cost_peak_below_2mb(self):
        # the kernel is built in row blocks and contracted block by block,
        # so neither the Duhamel step nor the cost holds a whole
        # (terms x frequencies) matrix (about 1 MB at N=64, several times
        # that in temporaries)
        rng = np.random.default_rng(63)
        N, T = 64, 1.0
        initial = unit_energy_state(GENERIC, N, rng)
        target = ModalState.zeros(N)
        plan = solve_control(GENERIC, N, 0.0, T, initial, target)
        assert verify_roundtrip(GENERIC, N, plan, initial, target) <= 1e-8
        tracemalloc.start()
        try:
            for run in (lambda: verify_roundtrip(GENERIC, N, plan, initial, target),
                        lambda: control_cost(plan)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak <= 2 * 2**20
        finally:
            tracemalloc.stop()

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ggkdv.errors import ConstraintViolation, IllConditioned
from ggkdv.hum import (
    ERROR_EST_LIMIT,
    _CHANNELS,
    HumSystem,
    _duality_rhs,
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
    energy,
    evolve,
    forced_evolve,
    h_norm,
    trace,
    u_mean,
    v_mean,
)
from ggkdv.signals import ExponentialSignal
from ggkdv.spectral import (PRESETS, PhysicalParams, _from_real, _to_real,
                            critical_time, spectrum_table, trace_amplitudes)
from integral_oracle import exp_integral, quad_integral

GENERIC = PRESETS["generic"]
RESONANT = PRESETS["resonant"]


def reference_lambda(system):
    """The operator ``system`` was assembled for, built apart from its
    parity blocks: the test-side closed form of the kernel over [0, T]
    times ``sum_c a_c a_c^H`` of the observed adjoint trace amplitudes at
    x0."""
    params, N = system.params, system.N
    omega = spectrum_table(params, N).omega.ravel()
    amps = trace_amplitudes(params, N, system.x0, adjoint=True)
    return exp_integral(np.subtract.outer(omega, omega), 0.0, system.T) * sum(
        np.outer(a, np.conj(a)) for a in amps[_CHANNELS[system.mode]])


def operator(system):
    """The operator the solves use, ``D U blkdiag(C+, C-) U^H D^H``, as a
    dense matrix."""
    D = system.phases
    eye = np.eye(len(D))
    return (D[:, None] * _from_real(system._apply(
        _to_real(np.conj(D)[:, None] * eye)))).astype(complex)


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
        form = float(np.real(np.vdot(s, operator(system) @ s)))
        xi = ModalState(N, np.conj(s).reshape(2, 2 * N + 1))
        phi, psi = trace(GENERIC, xi, x0, adjoint=True)
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
        system = assemble_lambda(GENERIC, 5, 0.3, 2.0)
        for block in system.blocks:
            assert np.array_equal(block, block.T)
        m = operator(system)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-13 * np.max(np.abs(m))

    def test_n0_linear_in_t(self):
        # the k=0 adjoint mode is frozen, so Lambda is exactly linear in T
        m1 = operator(assemble_lambda(GENERIC, 0, 0.0, 1.0))
        m3 = operator(assemble_lambda(GENERIC, 0, 0.0, 3.0))
        assert np.max(np.abs(m3 - 3 * m1)) <= 1e-12 * np.max(np.abs(m1))

    def test_single_mode_kernel_recorded(self):
        sysf = assemble_lambda(GENERIC, 4, 0.0, 1.0, "f_only")
        sysg = assemble_lambda(GENERIC, 4, 0.0, 1.0, "g_only")
        for system in (sysf, sysg):
            assert system.constraint is not None
            ker, m = system.constraint, operator(system)
            resid = np.linalg.norm(m @ ker)
            assert resid <= 1e-10 * np.max(np.abs(m))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            assemble_lambda(GENERIC, 4, 0.0, 1.0, "h_only")


class TestRealFactorization:
    """Lambda = D R D^H: the solves factor the real R, held as its parity
    blocks and completed in single modes along the kernel direction v by
    sigma v v^T, sigma = trace(R) / (n - 1) the mean of the other
    eigenvalues.  Lambda is ``reference_lambda``, built over [0, T]."""

    @pytest.mark.parametrize("mode", ["both", "f_only", "g_only"])
    @pytest.mark.parametrize("x0", [0.0, 0.9365, 2.5])
    @pytest.mark.parametrize("N", [6, 16, 64])
    @pytest.mark.parametrize("preset", ["generic", "resonant"])
    def test_spectrum_matches_complex_lambda(self, preset, N, x0, mode):
        params = PRESETS[preset]
        T = 1.0 if preset == "generic" else 1.2 * critical_time(params)
        system = assemble_lambda(params, N, x0, T, mode)
        lam = reference_lambda(system)
        eps = np.finfo(float).eps
        ref = scipy.linalg.eigvalsh(lam)
        vals = system.eigvals()
        assert vals[-1] == pytest.approx(ref[-1], rel=1e-14)
        assert np.max(np.abs(vals - ref)) <= 32 * eps * ref[-1]
        if mode != "both":
            P = scipy.linalg.null_space(system.constraint[None, :].conj())
            ref = scipy.linalg.eigvalsh(P.conj().T @ lam @ P)
            vals = system._factor[0]
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
        # the completion needs R v = 0: Lambda's, R's and C+'s k=0 columns
        # are equal (f_only) or opposite (g_only) bit for bit.  R @ v itself
        # is not asserted, since a fused multiply-add can leave 1e-17 in it.
        # Lambda and R here are the reference's, C+ the system's
        T0 = critical_time(RESONANT)
        for mode in ("f_only", "g_only"):
            for x0 in (0.0, 0.9365, 2.5):
                for T in (0.3, 1.0, 1.2 * T0):
                    system = assemble_lambda(params, N, x0, T, mode)
                    v = system.constraint
                    a, b = np.flatnonzero(v)
                    sign = -v[b] / v[a]
                    D, lam = system.phases, reference_lambda(system)
                    R = (np.conj(D)[:, None] * lam * D).real
                    R = (R + R.T) / 2
                    for M in (lam, R):
                        assert np.array_equal(M[:, a], sign * M[:, b])
                    # the solves complete C+, whose k=0 columns are 0 and N+1
                    plus, _ = system.blocks
                    assert np.array_equal(plus[:, 0], sign * plus[:, N + 1])

    @pytest.mark.parametrize("mode", ["both", "f_only", "g_only"])
    @pytest.mark.parametrize("x0", [0.0, 0.9365])
    @pytest.mark.parametrize("N", [6, 16, 64])
    @pytest.mark.parametrize("preset, T", [
        ("generic", 1.0), ("generic", 0.5), ("resonant", None)])
    def test_blocks_are_the_real_form(self, preset, T, N, x0, mode):
        # in the real-field basis U, R = Re(D^H Lambda D) is diag(C+, C-)
        params = PRESETS[preset]
        T = T or 1.2 * critical_time(params)
        system = assemble_lambda(params, N, x0, T, mode)
        D = system.phases
        R = (np.conj(D)[:, None] * reference_lambda(system) * D).real
        R = (R + R.T) / 2
        URU = _to_real(np.conj(_to_real(R)).T).conj().T
        plus, minus = system.blocks
        n_p = len(plus)
        tol = 1e-15 * np.max(np.abs(R))
        assert np.max(np.abs(URU[:n_p, :n_p] - plus)) <= tol
        assert np.max(np.abs(URU[n_p:, n_p:] - minus)) <= tol
        assert not np.any(URU[:n_p, n_p:])

    def test_resonant_roundtrip_digits(self):
        # refinement residuals in long double against the blocks, with the
        # phases D and U applied in long double, keep the round trip at a
        # few eps: here a median of 1.7e-15, where the exact solution of
        # the operator (40-digit mpmath) reads 1.4e-15
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
        phi, psi = trace(GENERIC, xi, x0, adjoint=True)
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
        form = float(np.real(np.vdot(s, reference_lambda(system) @ s)))
        assert control_cost(plan) == pytest.approx(form, rel=1e-9)
        # and, as Lambda s = rhs, cost = Re<s, rhs>, whatever Lambda is
        rhs = _duality_rhs(GENERIC, initial)
        assert control_cost(plan) == pytest.approx(np.vdot(s, rhs).real,
                                                   rel=1e-9)

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
        # the a-priori estimate of the solve's and the check's rounding,
        # eps (2 lambda_max |s| / |rhs| + (|initial| + |target|) / scale),
        # bounds the achieved round-trip error; generic single-control data
        # exceeds the limit, so with the limit in force it raises
        # IllConditioned
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
        # the first solve takes one eigh per parity block, of sizes 2(N+1)
        # and 2N; repeated solves against one system reuse them
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *r, **k: shapes.append(a.shape)
                            or eigh(a, *r, **k))
        rng = np.random.default_rng(62)
        N, T = 5, 1.0
        system = assemble_lambda(GENERIC, N, 0.0, T, "f_only")
        for i in range(3):
            dim = 2 * (2 * N + 1)
            seed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            initial = reachable_defect(GENERIC, N, 0.0, T, "f_only", seed,
                                       system=system)
            solve_control(GENERIC, N, 0.0, T, initial, ModalState.zeros(N),
                          "f_only", system=system)
            if i == 0:
                assert shapes == [(2 * (N + 1),) * 2, (2 * N,) * 2]
        assert len(shapes) == 2

    @pytest.mark.parametrize("field, value", [
        ("params", RESONANT), ("N", 5), ("x0", 0.5), ("T", 2.0),
        ("mode", "both")])
    def test_system_for_another_problem_rejected(self, field, value):
        # a prebuilt system used for other data would give a wrong control
        # (a "both" system on f_only data misses by 0.3-0.6 in round trip),
        # a spurious IllConditioned or a matmul error: both entry points
        # compare its params, N, x0, T and mode exactly
        problem = dict(params=GENERIC, N=6, x0=0.0, T=1.0, mode="f_only")
        system = assemble_lambda(*problem.values())
        problem[field] = value
        params, N, x0, T, mode = problem.values()
        zero, seed = ModalState.zeros(N), np.ones(2 * (2 * N + 1))
        with pytest.raises(ValueError, match="another problem"):
            solve_control(params, N, x0, T, zero, zero, mode, system=system)
        with pytest.raises(ValueError, match="another problem"):
            reachable_defect(params, N, x0, T, mode, seed, system=system)

    @pytest.mark.parametrize("preset, T, most", [
        # without the stagnation stop the generic solve ran all 6
        # corrections: 7 solves
        ("generic", 1.0, 4),
        ("resonant", 1.2 * critical_time(RESONANT), 3),
    ])
    def test_refinement_stops_when_it_stagnates(self, monkeypatch, preset,
                                                T, most):
        calls = []
        solve = HumSystem._solve
        monkeypatch.setattr(HumSystem, "_solve",
                            lambda self, b: calls.append(1) or solve(self, b))
        params = PRESETS[preset]
        rng = np.random.default_rng(0)
        N = 16
        initial = unit_energy_state(params, N, rng)
        target = unit_energy_state(params, N, rng)
        plan = solve_control(params, N, 0.0, T, initial, target)
        assert len(calls) <= most
        err = verify_roundtrip(params, N, plan, initial, target)
        assert err <= plan.error_estimate <= ERROR_EST_LIMIT

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
        plan = ControlPlan(None, None, 0.0, T, np.zeros(2 * (2 * N + 1)))
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
        bad = ControlPlan(bad_f, plan.g, plan.x0, plan.T, plan.adjoint_seed)
        assert verify_roundtrip(GENERIC, N, bad, initial, ModalState.zeros(N)) > 1e-6

    @pytest.mark.parametrize("x0", [1e10, 1e14, 1e17, 2e307])
    @pytest.mark.parametrize("preset", ["generic", "resonant"])
    def test_far_control_point(self, preset, x0):
        # x0 enters the phases e^{ikx0} reduced modulo 2 pi, so a point far
        # out steers as well as its representative on the circle
        params = PRESETS[preset]
        N, T = 8, 1.2 * (critical_time(params) or 1.0)
        rng = np.random.default_rng(13)
        dim = 2 * (2 * N + 1)
        seed = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        target = unit_energy_state(params, N, rng)
        initial = (reachable_defect(params, N, x0, T, "both", seed)
                   + evolve(params, target, -T))
        plan = solve_control(params, N, x0, T, initial, target, "both")
        assert verify_roundtrip(params, N, plan, initial, target) <= 1e-12


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
        phi, _ = trace(GENERIC, seed, x0, adjoint=True)
        work = quad_integral(lambda t: f.evaluate(t) * phi.evaluate(t), 0.0, T)
        rhs = bilinear_pairing(GENERIC, initial, seed) + work
        scale = max(abs(lhs), abs(rhs), energy(GENERIC, initial),
                    energy(GENERIC, seed), 1.0)
        assert abs(lhs - rhs) / scale <= 1e-7


def fourier_pairing(params, state, adjoint_state):
    """The pairing through Fourier coefficients,
    2 pi sum_k (u_k phi_{-k} + v_k psi_{-k})."""
    table = spectrum_table(params, state.N)
    uv = np.einsum("bkj,bk->jk", table.z, state.coeffs)
    pq = np.einsum("bkj,bk->jk", table.zt, adjoint_state.coeffs)
    return 2 * np.pi * complex(np.sum(uv * pq[:, ::-1]))


def solved_defect(params, N, rhs):
    """The state with duality map ``rhs`` by per-mode 2x2 solves of
    zt (hat u_{-k}, hat v_{-k}) = rhs / (2 pi), then the weighted projection
    onto the forward eigenvectors."""
    table = spectrum_table(params, N)
    rhs2 = rhs.reshape(2, 2 * N + 1) / (2 * np.pi)
    uv_rev = np.linalg.solve(table.zt.transpose(1, 0, 2), rhs2.T[:, :, None])
    uv = uv_rev[::-1, :, 0].T
    return (table.z[:, :, 0] * uv[0]
            + params.weight * table.z[:, :, 1] * uv[1]) / table.norm2


PAIRING_PARAMS = st.sampled_from([GENERIC, RESONANT]) | st.builds(
    PhysicalParams, *[st.floats(0.1, 10.0)] * 4)


class TestPairingFuzz:
    """The diagonal pairing over the presets and (a, c, d, r) in
    [0.1, 10]^4, where the adjoint eigenvectors are biorthogonal to the
    forward ones to roundoff (``test_spectral.TestAdjointPairingDiagonal``).
    Errors are relative to 2 pi sqrt(sum |c|^2 n) sqrt(sum |a|^2 n),
    n = ||Z||_w^2 / w, which bounds every term of either form."""

    @staticmethod
    def scale(params, state, adj):
        n = spectrum_table(params, state.N).norm2 / params.weight
        return 2 * np.pi * np.sqrt(np.sum(np.abs(state.coeffs) ** 2 * n)
                                   * np.sum(np.abs(adj.coeffs) ** 2 * n))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(PAIRING_PARAMS, st.integers(0, 16), st.integers(0, 2**32 - 1),
           st.floats(-10.0, 10.0))
    def test_pairing(self, params, N, seed, t):
        rng = np.random.default_rng(seed)
        state, adj = ModalState.random(N, rng), ModalState.random(N, rng)
        scale = self.scale(params, state, adj)
        p0 = bilinear_pairing(params, state, adj)
        assert abs(p0 - fourier_pairing(params, state, adj)) <= 1e-13 * scale
        # conserved by the mutually dual free flows
        pt = bilinear_pairing(params, evolve(params, state, t),
                              evolve(params, adj, t))
        assert abs(pt - p0) <= 1e-13 * scale


class TestReachableDefect:
    @pytest.mark.parametrize("params", [GENERIC, RESONANT])
    @pytest.mark.parametrize("N", [6, 16])
    @pytest.mark.parametrize("mode", ["both", "f_only", "g_only"])
    def test_inverts_the_duality_map(self, params, N, mode):
        x0, T = 0.9365, 1.2 * critical_time(params) or 1.0
        system = assemble_lambda(params, N, x0, T, mode)
        rng = np.random.default_rng(N)
        seed = rng.standard_normal(len(system.phases)) \
            + 1j * rng.standard_normal(len(system.phases))
        defect = reachable_defect(params, N, x0, T, mode, seed, system)
        rhs = reference_lambda(system) @ seed
        assert np.max(np.abs(_duality_rhs(params, defect) - rhs)) \
            <= 1e-14 * np.max(np.abs(rhs))
        reference = solved_defect(params, N, rhs)
        assert np.max(np.abs(defect.coeffs - reference)) \
            <= 1e-13 * np.max(np.abs(reference))


class TestMemory:
    def test_roundtrip_and_cost_peak_below_2mb(self):
        # the Duhamel step and the cost each hold one (terms x
        # frequencies) kernel, about 1 MB at N=64, built in row blocks whose
        # temporaries stay small
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


def mp_hum_operator(mp, params, N, x0, T, channels):
    """``(Lambda, weights)`` at the working precision of ``mp``: the HUM
    operator ``sum_c a_c a_c^H * integral_0^T e^{i(omega_i - omega_j)t} dt``
    from the closed-form frequencies and adjoint trace amplitudes a_c =
    Zt[c] e^{ikx0} evaluated there, and the weights 2 pi ||Z||_w^2 / w of
    the duality map, both over (branch, k)."""
    a, c, d, r = (mp.mpf(p) for p in (params.a, params.c, params.d,
                                      params.r))
    w, T = a * c / d, mp.mpf(T)
    omega, amps, weights = [], [], []
    for sign in (1, -1):
        for k in range(-N, N + 1):
            root = k * mp.sqrt(4 * a * c * d * k**4 + ((c - 1) * k**2 + r) ** 2)
            omega.append(((c + 1) * k**3 - r * k + sign * root) / (2 * c))
            if k == 0:
                v = sign * mp.sqrt(4 * a * c * d)
            else:
                rk2 = r / k**2
                v = 1 - c - rk2 + sign * mp.sqrt(4 * a * c * d
                                                 + (c - 1 + rk2) ** 2)
            phase = mp.expj(k * mp.mpf(x0))
            amps.append([(2 * d, v)[ch] * phase for ch in channels])
            weights.append(2 * mp.pi * ((2 * a * c) ** 2 + w * v**2) / w)
    n = len(omega)
    lam = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            delta = omega[i] - omega[j]
            K = T if delta == 0 else (mp.expj(delta * T) - 1) / (1j * delta)
            lam[i, j] = K * mp.fsum(x * mp.conj(y)
                                    for x, y in zip(amps[i], amps[j]))
    return lam, weights


def to_numpy(m):
    return np.array(m.tolist(), dtype=complex)


def mp_roundtrip(mp, params, N, plan, initial, target):
    """``verify_roundtrip`` at the working precision of ``mp``, of the
    float plan and the float spectral data: each Duhamel integral
    ``integral_0^T e^{i (mu - omega) t} dt`` and each phase e^{i omega T}
    from the exact difference of the float frequencies."""
    table = spectrum_table(params, N)
    inputs = np.conj(trace_amplitudes(params, N, plan.x0)) * [
        [1.0], [params.weight]]
    T, err2 = mp.mpf(plan.T), 0
    for j, (w, n2, c0, c1) in enumerate(zip(
            table.omega.ravel(), table.norm2.ravel(),
            initial.coeffs.ravel(), target.coeffs.ravel())):
        forced = 0
        for sig, inp in zip((plan.f, plan.g), inputs):
            for amp, mu, _ in sig.terms if sig else ():
                x = mp.mpf(mu) - mp.mpf(w)
                forced += mp.mpc(amp) * mp.mpc(inp[j]) * (
                    (mp.expj(x * T) - 1) / (1j * x) if x else T)
        final = mp.expj(mp.mpf(w) * T) * (mp.mpc(c0)
                                          + forced / (2 * mp.pi * n2))
        err2 += 2 * mp.pi * n2 * abs(final - mp.mpc(c1)) ** 2
    scale = max(h_norm(params, initial), h_norm(params, target), 1.0)
    return float(mp.sqrt(err2)) / scale


class TestMpmathReference:
    """Lambda, the solved seed and the control cost against a 40-digit
    reference built from (a, c, d, r) in mpmath, with ``mp.lu_solve`` for
    ``Lambda s = rhs`` and the cost ``s^H Lambda s``.  Measured: Lambda
    within 4.7e-15 of its largest diagonal entry (resonant N=4, f_only);
    the seed within 1.4e-12 of its largest entry at generic N=4 and 8
    (condition number 1.25e6 and 1.29e6) and 2.3e-15 at resonant N=4
    (3.4); the cost within 1.7e-11 and 3.8e-16 relative.  The round trip
    of the float plan against its 40-digit forced evolution
    (``mp_roundtrip``)."""

    CASES = [("generic", 2, 1.0), ("generic", 4, 1.0),
             ("resonant", 2, 1.2 * critical_time(RESONANT)),
             ("resonant", 4, 1.2 * critical_time(RESONANT))]
    # (seed, cost) bounds per preset, a few times the measured errors
    BOUNDS = {"generic": (1e-10, 2e-10), "resonant": (1e-14, 2e-15)}

    @pytest.mark.parametrize("mode", ["both", "f_only"])
    @pytest.mark.parametrize("preset, N, T", CASES)
    def test_lambda(self, preset, N, T, mode):
        mp = pytest.importorskip("mpmath")
        x0, params = 0.9365, PRESETS[preset]
        with mp.workdps(40):
            ref = to_numpy(mp_hum_operator(
                mp, params, N, x0, T, [0, 1] if mode == "both" else [0])[0])
        lam = operator(assemble_lambda(params, N, x0, T, mode))
        assert np.max(np.abs(lam - ref)) <= 2e-14 * np.max(np.abs(np.diag(ref)))

    @pytest.mark.parametrize("preset, N, T", CASES + [("generic", 8, 1.0)])
    def test_seed_and_cost(self, preset, N, T):
        mp = pytest.importorskip("mpmath")
        x0, params = 0.9365, PRESETS[preset]
        initial = unit_energy_state(params, N, np.random.default_rng(N))
        plan = solve_control(params, N, x0, T, initial, ModalState.zeros(N))
        with mp.workdps(40):
            lam, weights = mp_hum_operator(mp, params, N, x0, T, [0, 1])
            # the duality map of the defect: initial, with k reversed
            coeffs = initial.coeffs[:, ::-1].ravel()
            rhs = mp.matrix([wt * mp.mpc(cf) for wt, cf in zip(weights, coeffs)])
            s = mp.lu_solve(lam, rhs)
            cost = float(mp.re((s.H * lam * s)[0, 0]))
            s = to_numpy(s).ravel()
        seed_tol, cost_tol = self.BOUNDS[preset]
        seed_err = np.max(np.abs(np.conj(plan.adjoint_seed) - s))
        assert seed_err <= seed_tol * np.max(np.abs(s))
        if preset == "generic":
            # the solve and its refinement in the blocks' real basis, with
            # the exact phases, resolve the seed to 1.4e-12 here
            assert seed_err <= 1e-11 * np.max(np.abs(s))
        assert abs(control_cost(plan) - cost) <= cost_tol * cost

    @pytest.mark.parametrize("preset, N, T", CASES + [
        ("generic", 8, 1.0), ("resonant", 8, 1.2 * critical_time(RESONANT))])
    def test_roundtrip(self, preset, N, T):
        # the round trip the plan achieves, at 40 digits, is within its
        # error estimate, and the float check is within the share of it
        # that the check's own rounding takes; measured: 2.3-2.7e-16
        # resonant, where free-flow phases taken as exp(1j * omega * T)
        # gave 3.3e-14 and 1.8e-13 at N=4 and 8 while their check read
        # 4e-16, and 2.4e-12 to 2.0e-11 generic
        mp = pytest.importorskip("mpmath")
        params = PRESETS[preset]
        rng = np.random.default_rng(N)
        initial = unit_energy_state(params, N, rng)
        target = unit_energy_state(params, N, rng)
        plan = solve_control(params, N, 0.9365, T, initial, target)
        err = verify_roundtrip(params, N, plan, initial, target)
        with mp.workdps(40):
            exact = mp_roundtrip(mp, params, N, plan, initial, target)
        assert exact <= plan.error_estimate
        assert abs(err - exact) <= plan.error_estimate / 2
        if preset == "resonant":
            assert exact <= 1e-15

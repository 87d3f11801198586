import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ggkdv.errors import AliasError
from ggkdv.modal import (
    GridFunction,
    ModalState,
    energy,
    evolve,
    forced_evolve,
    h_norm,
    modal_uv,
    project,
    reconstruct,
    trace,
    u_mean,
    v_mean,
)
from ggkdv.signals import ExponentialSignal
from ggkdv.spectral import (
    PRESETS,
    PhysicalParams,
    critical_time,
    spectrum_table,
    symbol_matrix,
)

ONES = PRESETS["resonant"]
GENERIC = PRESETS["generic"]
EPS = np.finfo(float).eps
# the presets and (a, c, d, r) in [0.1, 10]^4, as in test_hum's pairing fuzz
FLOW_PARAMS = st.sampled_from([GENERIC, ONES]) | st.builds(
    PhysicalParams, *[st.floats(0.1, 10.0)] * 4)
FLOW_TIMES = st.floats(-10.0, 10.0)


def ivp_forced_evolve(params, N, state0, f, g, x0, T):
    """Independent oracle: integrate the modal ODE with solve_ivp."""
    table = spectrum_table(params, N)
    omega = table.omega.ravel()
    w = params.weight
    phase = np.exp(-1j * table.ks * x0)
    base_f = (table.z[:, :, 0] * phase / (2 * np.pi * table.norm2)).ravel()
    base_g = (w * table.z[:, :, 1] * phase / (2 * np.pi * table.norm2)).ravel()

    def rhs(t, y):
        c = y[: len(omega)] + 1j * y[len(omega):]
        dc = 1j * omega * c
        if f:
            dc = dc + f.evaluate(t) * base_f
        if g:
            dc = dc + g.evaluate(t) * base_g
        return np.concatenate([dc.real, dc.imag])

    y0 = np.concatenate([state0.coeffs.ravel().real, state0.coeffs.ravel().imag])
    sol = solve_ivp(rhs, (0.0, T), y0, rtol=1e-12, atol=1e-12, method="DOP853")
    c = sol.y[: len(omega), -1] + 1j * sol.y[len(omega):, -1]
    return ModalState(N, c.reshape(2, 2 * N + 1))


class TestProjectReconstruct:
    def test_basis_reproduction(self):
        N, M = 4, 16
        t = spectrum_table(ONES, 1)
        z1p = t.z[0, 1 + t.N]
        x = 2 * np.pi * np.arange(M) / M
        fields = GridFunction(z1p[0] * np.exp(1j * x), z1p[1] * np.exp(1j * x))
        state = project(ONES, N, fields)
        want = np.zeros((2, 2 * N + 1), dtype=complex)
        want[0, 1 + N] = 1.0
        assert np.max(np.abs(state.coeffs - want)) <= 1e-12

    def test_zero_fields(self):
        fields = GridFunction(np.zeros(16), np.zeros(16))
        assert np.all(project(GENERIC, 4, fields).coeffs == 0)

    def test_states_compare_by_identity(self):
        # array fields: a field-wise == would raise on two equal states
        a, b = ModalState.zeros(2), ModalState.zeros(2)
        assert a == a
        assert not a == b

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        state = ModalState.random(8, rng)
        back = project(GENERIC, 8, reconstruct(GENERIC, state, 32))
        assert np.max(np.abs(back.coeffs - state.coeffs)) <= 1e-12

    def test_reconstruct_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        N, M = 5, 24
        state = ModalState.random(N, rng)
        grid = reconstruct(GENERIC, state, M)
        uv = modal_uv(GENERIC, state)
        x = 2 * np.pi * np.arange(M) / M
        u_direct = sum(uv[0, k + N] * np.exp(1j * k * x) for k in range(-N, N + 1))
        v_direct = sum(uv[1, k + N] * np.exp(1j * k * x) for k in range(-N, N + 1))
        assert np.max(np.abs(grid.u - u_direct)) <= 1e-11
        assert np.max(np.abs(grid.v - v_direct)) <= 1e-11

    def test_real_field_symmetry(self):
        rng = np.random.default_rng(2)
        state = ModalState.random(6, rng, real_field=True)
        grid = reconstruct(GENERIC, state, 32)
        assert np.max(np.abs(grid.u.imag)) <= 1e-12
        assert np.max(np.abs(grid.v.imag)) <= 1e-12
        back = project(GENERIC, 6, grid)
        # c_k = conj(c_-k) per branch, to 1e-12 max(1, max|c|)
        for c in (state.coeffs, back.coeffs):
            dev = np.max(np.abs(c - np.conj(c[:, ::-1])))
            assert dev <= 1e-12 * max(1.0, np.max(np.abs(c)))

    def test_alias_errors(self):
        with pytest.raises(AliasError):
            project(GENERIC, 8, GridFunction(np.zeros(16), np.zeros(16)))
        with pytest.raises(AliasError):
            reconstruct(GENERIC, ModalState.zeros(8), 16)


class TestEvolve:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(3)
        s = ModalState.random(4, rng)
        assert np.array_equal(evolve(GENERIC, s, 0.0).coeffs, s.coeffs)

    def test_single_mode_phase(self):
        s = ModalState.zeros(2)
        s.coeffs[0, 1 + 2] = 1.0
        out = evolve(ONES, s, 1.0)
        want = np.exp(1j * (1 + math.sqrt(5)) / 2)
        assert out.coeffs[0, 3] == pytest.approx(want, abs=1e-14)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(FLOW_PARAMS, st.integers(0, 16), st.integers(0, 2**32 - 1),
           FLOW_TIMES, FLOW_TIMES)
    def test_group_property(self, params, N, seed, t, s):
        # the phases omega t carry an error of eps |omega t| each
        state = ModalState.random(N, np.random.default_rng(seed))
        a = evolve(params, evolve(params, state, t), s)
        b = evolve(params, state, t + s)
        omega = np.max(np.abs(spectrum_table(params, N).omega))
        bound = 4 * EPS * (1 + omega * (abs(t) + abs(s)))
        assert np.max(np.abs(a.coeffs - b.coeffs)) \
            <= bound * np.max(np.abs(state.coeffs))

    def test_exact_phases_against_mpmath(self):
        # at resonant N=64, T = 1.2 T0, max|omega T| is 7.9e6 rad; phases
        # taken as exp(1j * omega * T) were off by up to 4.4e-10 and the
        # state by 1.1e-10 in relative H-norm
        mp = pytest.importorskip("mpmath")
        N = 64
        T = 1.2 * critical_time(ONES)
        state = ModalState.random(N, np.random.default_rng(64))
        omega = spectrum_table(ONES, N).omega
        with mp.workdps(40):
            phases = np.array([[complex(mp.expj(mp.mpf(w) * mp.mpf(T)))
                                for w in row] for row in omega])
        want = ModalState(N, state.coeffs * phases)
        err = h_norm(ONES, evolve(ONES, state, T) - want)
        assert err <= 1e-14 * h_norm(ONES, state)

    def test_inverse(self):
        rng = np.random.default_rng(5)
        s = ModalState.random(8, rng)
        back = evolve(GENERIC, evolve(GENERIC, s, 2.7), -2.7)
        assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-12 * np.max(np.abs(s.coeffs))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(FLOW_PARAMS, st.integers(0, 16), st.integers(0, 2**32 - 1),
           FLOW_TIMES)
    def test_energy_conservation(self, params, N, seed, t):
        state = ModalState.random(N, np.random.default_rng(seed))
        e0 = energy(params, state)
        assert abs(energy(params, evolve(params, state, t)) - e0) <= 1e-14 * e0


class TestEnergy:
    def test_zero_state(self):
        assert energy(GENERIC, ModalState.zeros(4)) == 0.0

    def test_matches_grid_quadrature(self):
        # uniform-grid mean is exact quadrature for band-limited fields
        rng = np.random.default_rng(7)
        for p in (ONES, GENERIC):
            s = ModalState.random(5, rng)
            grid = reconstruct(p, s, 64)
            quad = 2 * np.pi * np.mean(
                np.abs(grid.u) ** 2 + p.weight * np.abs(grid.v) ** 2)
            assert energy(p, s) == pytest.approx(quad, rel=1e-10)

    def test_single_mode_value(self):
        s = ModalState.zeros(3)
        s.coeffs[0, 1 + 3] = 1.0
        table = spectrum_table(ONES, 3)
        assert energy(ONES, s) == pytest.approx(2 * np.pi * table.norm2[0, 4])

    def test_h_norm(self):
        rng = np.random.default_rng(8)
        s = ModalState.random(4, rng)
        assert h_norm(GENERIC, s) == pytest.approx(math.sqrt(energy(GENERIC, s)))


class TestMeans:
    def test_u_mean_formula(self):
        rng = np.random.default_rng(9)
        s = ModalState.random(4, rng)
        uv = modal_uv(GENERIC, s)
        assert u_mean(GENERIC, s) == pytest.approx(2 * np.pi * uv[0, 4])
        assert v_mean(GENERIC, s) == pytest.approx(2 * np.pi * uv[1, 4])

    def test_means_conserved_by_free_flow(self):
        rng = np.random.default_rng(10)
        s = ModalState.random(4, rng)
        out = evolve(GENERIC, s, 3.3)
        assert u_mean(GENERIC, out) == pytest.approx(u_mean(GENERIC, s))
        assert v_mean(GENERIC, out) == pytest.approx(v_mean(GENERIC, s))


class TestTrace:
    def test_zero_state_empty(self):
        us, vs = trace(GENERIC, ModalState.zeros(3), 0.5)
        assert not us and not vs

    def test_single_mode_single_term(self):
        s = ModalState.zeros(3)
        s.coeffs[0, 1 + 3] = 1.0
        x0 = 0.7
        us, _ = trace(ONES, s, x0)
        t = spectrum_table(ONES, 1)
        assert len(us.terms) == 1
        amp, freq, deg = us.terms[0]
        assert amp == pytest.approx(t.z[0, 1 + t.N, 0] * np.exp(1j * x0))
        assert freq == pytest.approx(t.omega[0, 1 + t.N])
        assert deg == 0

    def test_trace_matches_reconstruction(self):
        rng = np.random.default_rng(11)
        N, M = 6, 32
        s = ModalState.random(N, rng)
        j0 = 5
        x0 = 2 * np.pi * j0 / M
        us, vs = trace(GENERIC, s, x0)
        for t in rng.uniform(-3, 3, size=50):
            grid = reconstruct(GENERIC, evolve(GENERIC, s, t), M)
            assert abs(us.evaluate(t) - grid.u[j0]) <= 1e-10 * max(1, abs(grid.u[j0]))
            assert abs(vs.evaluate(t) - grid.v[j0]) <= 1e-10 * max(1, abs(grid.v[j0]))


class TestForcedEvolve:
    def test_reduces_to_free_flow(self):
        rng = np.random.default_rng(12)
        s = ModalState.random(5, rng)
        out = forced_evolve(GENERIC, 5, s, None, None, 0.0, 1.3)
        want = evolve(GENERIC, s, 1.3)
        assert np.max(np.abs(out.coeffs - want.coeffs)) <= 1e-14

    def test_against_ivp_oracle(self):
        rng = np.random.default_rng(13)
        N, x0, T = 4, 0.9, 1.5
        s = ModalState.random(N, rng)
        f = ExponentialSignal.from_terms(
            [(1.0 + 0.5j, 2.3, 0), (0.3, -1.1, 0)])
        g = ExponentialSignal.from_terms([(0.7 - 0.2j, 0.4, 0)])
        got = forced_evolve(GENERIC, N, s, f, g, x0, T)
        want = ivp_forced_evolve(GENERIC, N, s, f, g, x0, T)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-9

    def test_resonant_forcing_against_oracle(self):
        # forcing exactly at a system frequency takes the kernel at x = 0
        N, x0, T = 3, 0.0, 2.0
        table = spectrum_table(GENERIC, N)
        mu = float(table.omega[0, 2 + N])
        s = ModalState.zeros(N)
        f = ExponentialSignal(((1.0 + 0.0j, mu, 0),))
        got = forced_evolve(GENERIC, N, s, f, None, x0, T)
        want = ivp_forced_evolve(GENERIC, N, s, f, None, x0, T)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-9

    def test_zero_frequency_forcing_at_huge_horizon(self):
        # the Duhamel integral at frequency 0 is T itself: the series of
        # the complex kernel squared T and read NaN at T = 1e200
        N, T = 3, 1e200
        f = ExponentialSignal(((1.0, 0.0, 0),))
        with np.errstate(all="raise"):
            got = forced_evolve(GENERIC, N, ModalState.zeros(N), f, None,
                                0.0, T)
        assert np.all(np.isfinite(got.coeffs))
        table = spectrum_table(GENERIC, N)
        want = table.z[:, N, 0] * T / (2 * np.pi * table.norm2[:, N])
        assert np.allclose(got.coeffs[:, N], want, rtol=1e-14)

    def test_backward_in_time_against_oracle(self):
        N = 3
        rng = np.random.default_rng(15)
        s = ModalState.random(N, rng)
        f = ExponentialSignal(((1.0, 0.8, 0),))
        got = forced_evolve(GENERIC, N, s, f, None, 0.0, -1.2)
        want = ivp_forced_evolve(GENERIC, N, s, f, None, 0.0, -1.2)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(16)
        N, T = 4, 1.0
        s1 = ModalState.random(N, rng)
        s2 = ModalState.random(N, rng)
        f1 = ExponentialSignal(((1.0, 2.0, 0),))
        f2 = ExponentialSignal(((0.5j, -1.0, 0),))
        sep = (forced_evolve(GENERIC, N, s1, f1, None, 0.1, T)
               + forced_evolve(GENERIC, N, s2, f2, None, 0.1, T))
        f12 = ExponentialSignal.from_terms(f1.terms + f2.terms)
        joint = forced_evolve(GENERIC, N, s1 + s2, f12, None, 0.1, T)
        scale = np.max(np.abs(joint.coeffs))
        assert np.max(np.abs(sep.coeffs - joint.coeffs)) <= 1e-11 * max(1, scale)

    def test_mean_invariance(self):
        rng = np.random.default_rng(17)
        N = 4
        s = ModalState.random(N, rng)
        g = ExponentialSignal(((1.0 + 1.0j, 1.5, 0),))
        f = ExponentialSignal(((2.0 - 0.5j, -0.7, 0),))
        for t in (0.5, 1.0, 2.0):
            # f absent: u-mean conserved
            out = forced_evolve(GENERIC, N, s, None, g, 0.4, t)
            assert abs(u_mean(GENERIC, out) - u_mean(GENERIC, s)) <= 1e-10
            # g absent: v-mean conserved
            out = forced_evolve(GENERIC, N, s, f, None, 0.4, t)
            assert abs(v_mean(GENERIC, out) - v_mean(GENERIC, s)) <= 1e-10


class TestAdjoint:
    def test_transposed_symbol_shares_spectrum(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            p = PhysicalParams(*np.exp(rng.uniform(-1, 1, size=4)))
            for k in range(-12, 13):
                S = symbol_matrix(p, k)
                ev1 = np.sort(np.linalg.eigvals(S).real)
                ev2 = np.sort(np.linalg.eigvals(S.T).real)
                assert np.allclose(ev1, ev2, atol=1e-9 * max(1, abs(k) ** 3))

    def test_k0_frozen(self):
        s = ModalState.zeros(2)
        s.coeffs[0, 2] = 1.0 + 2.0j
        s.coeffs[1, 2] = -0.5
        out = evolve(GENERIC, s, 7.7)
        assert np.allclose(out.coeffs[:, 2], s.coeffs[:, 2])

    def test_anti_adjointness_matrix_identity(self):
        # <i S_k y, z>_w + <y, i S_k z>_w = 0 <=> W S_k symmetric
        W = np.diag([1.0, GENERIC.weight])
        for k in range(1, 6):
            S = symbol_matrix(GENERIC, k)
            assert np.allclose(W @ S, (W @ S).T, atol=1e-12)

    def test_adjoint_trace_terms(self):
        s = ModalState.zeros(2)
        s.coeffs[1, 1 + 2] = 2.0
        x0 = 0.3
        phi, psi = trace(GENERIC, s, x0, adjoint=True)
        table = spectrum_table(GENERIC, 2)
        amp, freq, _ = phi.terms[0]
        assert amp == pytest.approx(2.0 * table.zt[1, 3, 0] * np.exp(1j * x0))
        assert freq == pytest.approx(table.omega[1, 3])
        assert len(psi.terms) == 1

import numpy as np
import pytest
import scipy.linalg

from ggkdv.errors import GramianSingular
from ggkdv.modal import ModalState, h_norm
from ggkdv.spectral import PRESETS, PhysicalParams, critical_time, spectrum_table
from ggkdv.stabilize import (
    SINGULAR_REL_TOL,
    _to_real,
    _weighted_gramian,
    closed_loop_simulate,
    feedback_gains,
    spectral_abscissa,
    zero_gains,
)

GENERIC = PRESETS["generic"]
RESONANT = PRESETS["resonant"]
# (params, Th) and target rates of the benchmark's stabilize workload
STAB_SETTINGS = ((GENERIC, 2.0), (RESONANT, 1.5 * critical_time(RESONANT)))
STAB_RATES = (0.25, 0.5, 1.0)
REAL_FIELD_CASES = [(params, Th, N, x0) for params, Th in STAB_SETTINGS
                    for N in (6, 16, 32) for x0 in (0.0, 0.9365, 2.5)]
# beyond this cond(Lambda_w) the roundoff of the Gramian solve reaches the
# outputs whatever the basis: at resonant w = 1 (cond 9e8 at N = 16) the
# real and the complex computations differ by 1e-4 in the abscissa
COND_LIMIT = 1e6


def unit_energy_state(params, N, rng, real_field=False):
    s = ModalState.random(N, rng, real_field=real_field)
    return s.scaled(1.0 / h_norm(params, s))


class TestFeedbackGains:
    def test_abscissa_below_target(self):
        gains = feedback_gains(GENERIC, 6, 0.0, 0.5, 1.0)
        assert spectral_abscissa(gains) <= -0.45

    def test_zero_target_still_stabilizes(self):
        # omega_target = 0 gives the plain Gramian feedback, which is
        # asymptotically stabilizing even without an exponential weight
        gains = feedback_gains(GENERIC, 4, 0.0, 0.0, 1.0)
        assert spectral_abscissa(gains) < 0
        assert np.all(np.isfinite(gains.F_row))
        assert np.all(np.isfinite(gains.G_row))

    def test_rate_scales_with_target(self):
        r = {}
        for w in (0.5, 1.0):
            gains = feedback_gains(GENERIC, 6, 0.0, w, 2.0)
            assert spectral_abscissa(gains) <= -0.9 * w
            rep = closed_loop_simulate(GENERIC, 6, gains,
                                       ModalState.random(6, np.random.default_rng(0)),
                                       T_sim=8.0)
            r[w] = rep.fitted_decay_rate
            assert rep.fitted_decay_rate >= 0.9 * w
        assert r[1.0] >= 1.5 * r[0.5]

    def test_observation_point_equivariance(self):
        # shifting x0 by phi multiplies the gain on mode k by e^{i k phi}
        N, phi = 5, 0.7
        table = spectrum_table(GENERIC, N)
        ks = np.concatenate([table.ks, table.ks])
        g0 = feedback_gains(GENERIC, N, 0.3, 0.5, 1.0)
        g1 = feedback_gains(GENERIC, N, 0.3 + phi, 0.5, 1.0)
        twist = np.exp(1j * ks * phi)
        for r0, r1 in ((g0.F_row, g1.F_row), (g0.G_row, g1.G_row)):
            scale = max(1.0, np.max(np.abs(r0)))
            assert np.max(np.abs(r1 - r0 * twist)) <= 1e-10 * scale

    def test_real_field_gives_real_feedback(self):
        # conjugate symmetry of the gain rows: real fields produce real
        # control amplitudes
        rng = np.random.default_rng(2)
        gains = feedback_gains(GENERIC, 6, 0.4, 0.5, 1.0)
        for _ in range(5):
            state = unit_energy_state(GENERIC, 6, rng, real_field=True)
            c = state.coeffs.ravel()
            f = complex(gains.F_row @ c)
            g = complex(gains.G_row @ c)
            assert abs(f.imag) <= 1e-10 * max(1.0, abs(f))
            assert abs(g.imag) <= 1e-10 * max(1.0, abs(g))

    def test_horizon_must_exceed_critical_time(self):
        with pytest.raises(ValueError):
            feedback_gains(RESONANT, 4, 0.0, 0.5, 1.0)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            feedback_gains(GENERIC, 4, 0.0, -0.1, 1.0)

    def test_resonant_pairs_rejected(self):
        # r = (1 - ad) k^2 makes the slow branch vanish at |k| = 1, which
        # collides with the double zero frequency at k = 0
        p = PhysicalParams(0.5, 1.0, 0.5, 0.75)
        with pytest.raises(ValueError):
            feedback_gains(p, 3, 0.0, 0.5, 1.0)

    def test_tiny_horizon_singular_gramian(self):
        with pytest.raises(GramianSingular):
            feedback_gains(GENERIC, 12, 0.0, 0.5, 1e-6)


class TestClosedLoopSimulate:
    def test_zero_gains_conserve_energy(self):
        rng = np.random.default_rng(3)
        state = unit_energy_state(GENERIC, 6, rng)
        gains = zero_gains(GENERIC, 6, 0.0)
        rep = closed_loop_simulate(GENERIC, 6, gains, state, T_sim=20.0)
        assert abs(rep.abscissa) <= 1e-10
        drift = np.max(np.abs(rep.energies - rep.energies[0]))
        assert drift <= 1e-10 * rep.energies[0]
        assert abs(rep.fitted_decay_rate) <= 1e-6

    def test_energy_monotone_overall_and_overshoot_bounded(self):
        rng = np.random.default_rng(4)
        state = unit_energy_state(GENERIC, 6, rng)
        gains = feedback_gains(GENERIC, 6, 0.0, 0.5, 1.0)
        rep = closed_loop_simulate(GENERIC, 6, gains, state, T_sim=10.0)
        assert rep.energies[-1] < 1e-3 * rep.energies[0]
        assert 1.0 <= rep.fitted_M <= 1e3

    def test_long_horizon_overshoot_finite(self):
        # the energy and e^{-0.9 w t} both underflow to 0 well before
        # t = 1000; the overshoot comes from the rest, with no 0/0
        rng = np.random.default_rng(5)
        state = unit_energy_state(GENERIC, 6, rng)
        gains = feedback_gains(GENERIC, 6, 0.0, 1.0, 1.0)
        rep = closed_loop_simulate(GENERIC, 6, gains, state, T_sim=1000.0)
        assert rep.energies[-1] == 0.0
        assert 1.0 <= rep.fitted_M <= 1e3

    def test_rate_fit_before_underflow(self):
        # the energy underflows near t = 180 of 1000: the rate is fitted on
        # the tail half of the span before that, not on clipped values
        rng = np.random.default_rng(5)
        state = unit_energy_state(GENERIC, 6, rng)
        gains = feedback_gains(GENERIC, 6, 0.0, 1.0, 2.0)
        rep = closed_loop_simulate(GENERIC, 6, gains, state, T_sim=1000.0)
        assert rep.energies[-1] == 0.0
        rate = rep.fitted_decay_rate
        assert abs(rate + rep.abscissa) <= 1e-3 * abs(rep.abscissa)
        assert rate >= 0.9 * 1.0

    @pytest.mark.parametrize("params, Th", STAB_SETTINGS)
    def test_rate_fit_without_underflow_is_tail_half(self, params, Th):
        rng = np.random.default_rng(6)
        state = unit_energy_state(params, 6, rng)
        gains = feedback_gains(params, 6, 0.0, 1.0, Th)
        rep = closed_loop_simulate(params, 6, gains, state, T_sim=4 * Th)
        tail = rep.times >= 2 * Th
        slope = np.polyfit(rep.times[tail], np.log(rep.energies[tail]), 1)[0]
        assert rep.fitted_decay_rate == -slope / 2

    def test_positive_horizon_required(self):
        gains = zero_gains(GENERIC, 3, 0.0)
        with pytest.raises(ValueError):
            closed_loop_simulate(GENERIC, 3, gains, ModalState.zeros(3), 0.0)


def complex_reference(params, N, x0, w, Th):
    """The generator diag(i omega) - B Lambda_w^-1 B^H built in complex
    orthonormal coordinates, and cond(Lambda_w)."""
    omega, _, B, lam = _weighted_gramian(params, N, x0, w, Th)
    A = np.diag(1j * omega) - B @ np.linalg.solve(lam, B).conj().T
    return A, np.linalg.cond(lam)


def complex_simulation(params, N, A, state0, T_sim, w, steps=400):
    """(energies, fitted rate, fitted M, abscissa) of the closed loop A by
    complex expm steps of y = scale * c."""
    y = state0.coeffs.ravel() * np.sqrt(2 * np.pi * spectrum_table(params, N).norm2).ravel()
    step = scipy.linalg.expm(A * (T_sim / steps))
    energies = [float(np.vdot(y, y).real)]
    for _ in range(steps):
        y = step @ y
        energies.append(float(np.vdot(y, y).real))
    energies = np.array(energies)
    times = np.linspace(0.0, T_sim, steps + 1)
    tail = times >= T_sim / 2
    rate = -np.polyfit(times[tail], np.log(energies[tail]), 1)[0] / 2
    M = np.max(np.sqrt(energies / energies[0]) * np.exp(0.9 * w * times))
    return energies, rate, M, float(np.max(np.linalg.eigvals(A).real))


class TestRealFieldBasis:
    """The stabilization runs on U^H Lambda_w U, U^H B and U^H A U in the
    basis (e_k + e_-k)/sqrt2, i(e_k - e_-k)/sqrt2, dropping their imaginary
    parts; these tests check what is dropped and compare every output with
    the complex computation."""

    @pytest.mark.parametrize("params, Th, N, x0", REAL_FIELD_CASES)
    def test_discarded_imaginary_parts(self, params, Th, N, x0):
        for w in STAB_RATES:
            _, _, B, lam = _weighted_gramian(params, N, x0, w, Th)
            lam_r = _to_real(_to_real(lam).conj().T)
            B_r = _to_real(B)
            for m in (lam_r, B_r):
                assert np.max(np.abs(m.imag)) <= 1e-13 * np.max(np.abs(m))
            A, cond = complex_reference(params, N, x0, w, Th)
            if cond <= COND_LIMIT:
                A_r = _to_real(_to_real(A.conj().T).conj().T)
                assert np.max(np.abs(A_r.imag)) <= 1e-13 * np.max(np.abs(A_r))

    @pytest.mark.parametrize("params, Th, N, x0", REAL_FIELD_CASES)
    def test_matches_complex_computation(self, params, Th, N, x0):
        rng = np.random.default_rng([N, int(1e4 * x0)])
        for w in STAB_RATES:
            A, cond = complex_reference(params, N, x0, w, Th)
            if cond > COND_LIMIT:
                continue
            gains = feedback_gains(params, N, x0, w, Th)
            scale = np.max(np.abs(A))
            assert np.max(np.abs(gains.closed_loop - A)) <= 1e-12 * scale
            state = ModalState.random(N, rng)
            rep = closed_loop_simulate(params, N, gains, state, 4 * Th)
            energies, rate, M, abscissa = complex_simulation(
                params, N, A, state, 4 * Th, w)
            # the tail fit sees a near-defective eigenvalue cluster at
            # resonant w = 0.5: its rate moves by 1.8e-9 at cond 1.2e5
            rtol = max(1e-9, 1e-13 * cond)
            assert np.max(np.abs(rep.energies - energies)) <= rtol * energies[0]
            assert abs(rep.fitted_decay_rate - rate) <= rtol * rate
            assert abs(rep.fitted_M - M) <= rtol * M
            assert abs(rep.abscissa - abscissa) <= rtol * abs(abscissa)

    @pytest.mark.parametrize("params, Th", STAB_SETTINGS)
    @pytest.mark.parametrize("N", [6, 16, 32])
    def test_benchmark_settings_decay(self, params, Th, N):
        # criterion 9 at every setting, resonant w = 1 included, where
        # cond(Lambda_w) reaches 7.9e9 at N = 32
        rng = np.random.default_rng(N)
        for w in STAB_RATES:
            gains = feedback_gains(params, N, 0.0, w, Th)
            rep = closed_loop_simulate(params, N, gains,
                                       ModalState.random(N, rng), 4 * Th)
            assert rep.abscissa <= -0.9 * w
            assert rep.fitted_decay_rate >= 0.9 * w

    def test_singular_decisions_match_complex_gramian(self):
        for N in (4, 6, 12, 16, 32):
            for Th in (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0):
                for w in (0.0, 0.5):
                    lam = _weighted_gramian(GENERIC, N, 0.3, w, Th)[3]
                    vals = scipy.linalg.eigvalsh(lam)
                    singular = vals[0] <= SINGULAR_REL_TOL * vals[-1]
                    try:
                        feedback_gains(GENERIC, N, 0.3, w, Th)
                        raised = False
                    except GramianSingular:
                        raised = True
                    assert raised == singular, (N, Th, w)

    def test_expm_and_eigvals_take_real_arrays(self, monkeypatch):
        seen = []

        def spy(fn):
            def wrapped(a, *args, **kwargs):
                seen.append((fn.__name__, np.asarray(a).dtype))
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(scipy.linalg, "expm", spy(scipy.linalg.expm))
        monkeypatch.setattr(np.linalg, "eigvals", spy(np.linalg.eigvals))
        gains = feedback_gains(GENERIC, 6, 0.9365, 0.5, 2.0)
        state = ModalState.random(6, np.random.default_rng(1))
        closed_loop_simulate(GENERIC, 6, gains, state, 8.0)
        assert sorted(name for name, _ in seen) == ["eigvals", "expm"]
        assert all(dtype == np.float64 for _, dtype in seen)

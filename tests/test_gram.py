import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ggkdv.errors import EpsilonUnderflow
from ggkdv.gram import (
    ObservationWindow,
    divided_difference_constants,
    ingham_report,
    observability_constants,
    trace_gram,
)
from ggkdv.gram import _cluster, _newton_gram, _structural_kernel
from ggkdv.modal import ModalState, reconstruct
from ggkdv.signals import exp_poly_integral
from ggkdv.spectral import (PRESETS, PhysicalParams, critical_time,
                            spectrum_table, trace_amplitudes)

GENERIC = PRESETS["generic"]
RESONANT = PRESETS["resonant"]


def _trace_amplitudes(params, N, x0):
    """u and v trace amplitudes, frequencies, energy weights and labels,
    all flattened over (branch, k)."""
    table = spectrum_table(params, N)
    u_amp, v_amp = trace_amplitudes(params, N, x0)
    return (u_amp, v_amp, table.omega.ravel(),
            (2 * np.pi * table.norm2).ravel(), table.labels)


def quad_integral(func, t0, t1):
    re, _ = quad(lambda t: func(t).real, t0, t1, limit=200)
    im, _ = quad(lambda t: func(t).imag, t0, t1, limit=200)
    return re + 1j * im


class TestObservationWindow:
    def test_length(self):
        assert ObservationWindow(1.0, 3.5).length == 2.5

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ObservationWindow(1.0, 1.0)


class TestCluster:
    def test_separated_singletons(self):
        linked, eps = _cluster(np.array([0.0, 10.0, 20.0]), 1.0)
        assert not linked.any()
        assert eps == 1.0

    def test_k0_pair_clusters(self):
        # both zeros kept: the structural pair is one two-member run
        table = spectrum_table(RESONANT, 6)
        omega = np.sort(table.omega.ravel())
        eps = min(1.0, float(np.min(np.abs(np.diff(table.omega)))) / 4)
        linked, _ = _cluster(omega, eps)
        zeros = np.flatnonzero(omega == 0.0)
        np.testing.assert_array_equal(zeros, [zeros[0], zeros[0] + 1])
        assert linked[zeros[0]]
        assert not linked[zeros[0] - 1] and not linked[zeros[1]]

    def test_auto_halving_splits(self):
        # 0, 0.6, 1.2 chain transitively at eps=1; halving to 0.5 splits all
        linked, eps = _cluster(np.array([0.0, 0.6, 1.2]), 1.0)
        assert eps == 0.5
        assert not linked.any()

    def test_underflow_on_triple_collision(self):
        with pytest.raises(EpsilonUnderflow):
            _cluster(np.array([0.0, 1e-15, 2e-15]), 1.0)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            _cluster(np.array([0.0, 1.0]), 0.0)


class TestNewtonGram:
    """Every entry against quadrature of the explicit basis functions."""

    @staticmethod
    def check(omega, linked, basis, t0, t1, tol=1e-10):
        G = _newton_gram(np.array(omega), np.array(linked, dtype=bool),
                         ObservationWindow(t0, t1))
        assert G.shape == (len(basis), len(basis))
        for m, bm in enumerate(basis):
            for n, bn in enumerate(basis):
                want = quad_integral(lambda t: bm(t) * np.conj(bn(t)), t0, t1)
                assert abs(G[m, n] - want) <= tol
        return G

    def test_singleton(self):
        self.check([3.0], [], [lambda t: np.exp(3j * t)], 0.2, 1.9)

    def test_close_pair(self):
        # the difference row has amplitudes 1/(w1 - w2), so the kernel's
        # roundoff reaches the Gram amplified by 1/(w1 - w2)^2: 1.4e-10 here
        w1, w2 = 5.0, 5.001
        self.check([w1, w2], [True],
                   [lambda t: np.exp(1j * w1 * t),
                    lambda t: (np.exp(1j * w1 * t) - np.exp(1j * w2 * t))
                    / (w1 - w2)], 0.0, 1.0,
                   tol=1e-10 + 4 * np.finfo(float).eps / (w2 - w1) ** 2)

    def test_coincident_pair_limit(self):
        self.check([0.0, 5e-13], [True],
                   [lambda t: np.ones_like(t), lambda t: t], 0.0, 1.0)

    def test_integer_harmonics_orthogonal(self):
        ks = np.arange(-2.0, 3.0)
        G = self.check(ks, [False] * 4,
                       [lambda t, k=k: np.exp(1j * k * t) for k in ks],
                       0.0, 2 * np.pi)
        assert np.max(np.abs(G - 2 * np.pi * np.eye(5))) <= 1e-12


@st.composite
def trace_gram_cases(draw):
    """1-2 channels over 2-5 frequencies, one of them exactly repeated; a
    zero or weighting shift 2iw, w in [0, 1]; a window inside [0, 3]."""
    real = st.floats(-2.0, 2.0)
    distinct = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))
    omega = np.array(distinct + [distinct[draw(
        st.integers(0, len(distinct) - 1))]])
    channels = draw(st.integers(1, 2))
    amps = np.array([[complex(draw(real), draw(real)) for _ in omega]
                     for _ in range(channels)])
    shift = draw(st.sampled_from([0.0, 1.0])) * 2j * draw(st.floats(0.0, 1.0))
    t0, t1 = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=2,
                                  max_size=2, unique=True)))
    return amps, omega, shift, t0, t1


class TestTraceGram:
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(trace_gram_cases())
    def test_entries_against_quadrature(self, case):
        amps, omega, shift, t0, t1 = case
        G = trace_gram(amps, omega, t0, t1, shift=shift)
        n = len(omega)
        assert np.array_equal(G, G.conj().T)
        for i in range(n):
            for j in range(n):
                weight = np.sum(amps[:, i] * np.conj(amps[:, j]))
                z = omega[i] - omega[j] + shift
                re, _ = quad(lambda t: (weight * np.exp(1j * z * t)).real,
                             t0, t1, epsabs=1e-13, epsrel=1e-13, limit=200)
                im, _ = quad(lambda t: (weight * np.exp(1j * z * t)).imag,
                             t0, t1, epsabs=1e-13, epsrel=1e-13, limit=200)
                assert abs(G[i, j] - (re + 1j * im)) <= 1e-10

    def test_vector_weights(self):
        # signals e^{0}, e^{it} with channel weights W0 = (1, 0), W1 = (1, 1)
        amps = np.array([[1.0, 1.0], [0.0, 1.0]])
        gm = trace_gram(amps, np.array([0.0, 1.0]), 0.0, 2 * np.pi)
        # diagonal: |W|^2 * 2pi; off-diagonal: <W0, W1> * integral e^{-it}
        assert gm[0, 0] == pytest.approx(2 * np.pi)
        assert gm[1, 1] == pytest.approx(4 * np.pi)


class TestObservabilityConstants:
    def test_generic_both_positive(self):
        rep = observability_constants(GENERIC, 6, 0.0,
                                      ObservationWindow(0.0, 1.0), "both")
        assert rep.alpha > 0
        assert rep.kernel_dim == 0
        assert rep.beta >= rep.alpha

    def test_quadratic_form_identity(self):
        # c^H O c over the energy norm reproduces the observed trace energy
        from ggkdv.modal import trace
        rng = np.random.default_rng(2)
        N, x0 = 4, 0.6
        win = ObservationWindow(0.0, 1.3)
        s = ModalState.random(N, rng)
        us, vs = trace(GENERIC, s, x0)
        observed = us.l2_norm_sq(win.t0, win.t1) + vs.l2_norm_sq(win.t0, win.t1)
        rep = observability_constants(GENERIC, N, x0, win, "both")
        e = 2 * np.pi * np.sum(np.abs(s.coeffs) ** 2
                               * spectrum_table(GENERIC, N).norm2)
        assert rep.alpha * e <= observed * (1 + 1e-9)
        assert observed <= rep.beta * e * (1 + 1e-9)

    def test_window_monotonicity(self):
        a1 = observability_constants(GENERIC, 5, 0.0,
                                     ObservationWindow(0.0, 1.0)).alpha
        a2 = observability_constants(GENERIC, 5, 0.0,
                                     ObservationWindow(0.0, 2.0)).alpha
        assert a1 <= a2 * (1 + 1e-12)

    def test_translation_invariance(self):
        r1 = observability_constants(GENERIC, 5, 0.0, ObservationWindow(0.0, 1.5))
        r2 = observability_constants(GENERIC, 5, 0.0, ObservationWindow(2.3, 3.8))
        assert r1.alpha == pytest.approx(r2.alpha, rel=1e-10, abs=1e-12)
        assert r1.beta == pytest.approx(r2.beta, rel=1e-10)

    def test_x0_invariance_mode_both(self):
        rng = np.random.default_rng(3)
        win = ObservationWindow(0.0, 1.0)
        ref = observability_constants(GENERIC, 5, 0.0, win)
        for x0 in rng.uniform(0, 2 * np.pi, size=5):
            rep = observability_constants(GENERIC, 5, float(x0), win)
            assert rep.alpha == pytest.approx(ref.alpha, rel=1e-10, abs=1e-12)
            assert rep.beta == pytest.approx(ref.beta, rel=1e-10)

    def test_beta_scales_at_most_linearly(self):
        b1 = observability_constants(GENERIC, 5, 0.0,
                                     ObservationWindow(0.0, 1.0)).beta
        b2 = observability_constants(GENERIC, 5, 0.0,
                                     ObservationWindow(0.0, 2.0)).beta
        assert b1 <= b2 <= 2 * b1 * (1 + 1e-10)

    def test_single_trace_kernel_structure(self):
        T0 = critical_time(RESONANT)
        rep = observability_constants(RESONANT, 6, 0.0,
                                      ObservationWindow(0.0, 1.5 * T0), "u_only")
        assert rep.kernel_dim == 1
        vec = rep.kernel_vectors[:, 0]
        grid = reconstruct(RESONANT, ModalState(6, vec.reshape(2, 13)), 64)
        assert np.max(np.abs(grid.u)) <= 1e-10
        assert np.max(np.abs(grid.v - np.mean(grid.v))) <= 1e-10

    def test_haraux_exceptional_index_robustness(self):
        # dropping the k=0 pair and restoring it leaves positivity intact
        N, x0 = 6, 0.0
        win = ObservationWindow(0.0, 1.0)
        u_amp, v_amp, omega, ew, labels = _trace_amplitudes(GENERIC, N, x0)
        base = exp_poly_integral(omega[:, None] - omega[None, :], 0,
                                 win.t0, win.t1)
        O = (np.outer(u_amp, np.conj(u_amp))
             + np.outer(v_amp, np.conj(v_amp))) * base
        O = (O + O.conj().T) / 2
        keep = [i for i, (k, _) in enumerate(labels) if k != 0]
        vals_red = scipy.linalg.eigh(O[np.ix_(keep, keep)],
                                     np.diag(ew[keep]), eigvals_only=True)
        vals_full = scipy.linalg.eigh(O, np.diag(ew), eigvals_only=True)
        assert vals_red[0] > 0
        assert vals_full[0] > 0

    def test_limit_vector_perturbation(self):
        # swapping every eigenvector for its large-k limit moves alpha <20%
        N = 32
        win = ObservationWindow(0.0, 2 * np.pi)
        rep = observability_constants(GENERIC, N, 0.0, win)
        a, c, d = GENERIC.a, GENERIC.c, GENERIC.d
        root = np.sqrt(4 * a * c * d + (c - 1) ** 2)
        table = spectrum_table(GENERIC, N)
        z = np.empty_like(table.z)
        z[0, :, :] = [2 * a * c, 1 - c + root]
        z[1, :, :] = [2 * a * c, 1 - c - root]
        norm2 = z[:, :, 0] ** 2 + GENERIC.weight * z[:, :, 1] ** 2
        omega = table.omega.ravel()
        base = exp_poly_integral(omega[:, None] - omega[None, :], 0,
                                 win.t0, win.t1)
        u_amp, v_amp = z[:, :, 0].ravel(), z[:, :, 1].ravel()
        O = (np.outer(u_amp, u_amp) + np.outer(v_amp, v_amp)) * base
        O = (O + O.conj().T) / 2
        vals = scipy.linalg.eigh(O, np.diag((2 * np.pi * norm2).ravel()),
                                 eigvals_only=True)
        alpha_lim = max(float(vals[0]), 0.0)
        assert abs(alpha_lim - rep.alpha) < 0.2 * rep.alpha

    def test_reports_compare_by_identity(self):
        # array fields: a field-wise == would raise on two equal reports
        win = ObservationWindow(0.0, 1.0)
        a = observability_constants(GENERIC, 6, 0.0, win)
        b = observability_constants(GENERIC, 6, 0.0, win)
        assert a == a
        assert not a == b

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            observability_constants(GENERIC, 4, 0.0,
                                    ObservationWindow(0.0, 1.0), "w_only")


def dense_amplitude_rows(u_amp, v_amp, omega, mode):
    """The amplitude map as one dense matrix, one row per (coincidence
    group, observed channel), grouped by a scalar loop."""
    tol = 1e-9 * (1.0 + np.max(np.abs(omega)))
    groups = []
    for idx in np.argsort(omega):
        if groups and abs(omega[idx] - omega[groups[-1][0]]) <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    rows = []
    for g in groups:
        for amp, only in ((u_amp, "u_only"), (v_amp, "v_only")):
            if mode in ("both", only):
                row = np.zeros(len(omega), dtype=complex)
                row[g] = np.conj(amp[g])
                rows.append(row)
    return np.array(rows)


def projector(Q):
    return Q @ Q.conj().T


T0_RES = critical_time(RESONANT)
# r = (1 - ad) k^2 zeroes the slow branch at |k| = 1: four coinciding zeros
FOUR_ZEROS = PhysicalParams(0.5, 1.0, 0.5, 0.75)


class TestClosedFormsAgainstScipy:
    """The group-by-group structural kernel and the folded eigenproblem
    against a dense null space and the generalized eigensolver."""

    CASES = [(params, length, mode, N)
             for params, lengths in ((GENERIC, (0.5, 1.0)),
                                     (RESONANT, (0.5 * T0_RES, 1.5 * T0_RES)))
             for length in lengths
             for mode in ("both", "u_only", "v_only")
             for N in (6, 16, 32)]

    def check(self, params, N, x0, window, mode):
        """Returns True when the eigenvector fallback produced the kernel."""
        u_amp, v_amp, omega, ew, _ = _trace_amplitudes(params, N, x0)
        structural = _structural_kernel(u_amp, v_amp, omega, mode)
        dense = scipy.linalg.null_space(
            dense_amplitude_rows(u_amp, v_amp, omega, mode))
        assert structural.shape == dense.shape
        np.testing.assert_allclose(structural.conj().T @ structural,
                                   np.eye(dense.shape[1]), atol=1e-13)
        assert np.max(np.abs(projector(structural) - projector(dense))) <= 1e-12

        rep = observability_constants(params, N, x0, window, mode)
        base = exp_poly_integral(omega[:, None] - omega[None, :], 0,
                                 window.t0, window.t1)
        O = sum(np.outer(amp, np.conj(amp)) * base
                for amp, only in ((u_amp, "u_only"), (v_amp, "v_only"))
                if mode in ("both", only))
        O = (O + O.conj().T) / 2
        ref = scipy.linalg.eigh(O, np.diag(ew), eigvals_only=True)
        assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-13 * rep.beta
        assert rep.kernel_dim == int(np.sum(ref <= 1e-14 * ref[-1]))
        vecs = rep.kernel_vectors
        assert vecs.shape == (len(omega), rep.kernel_dim)
        if structural.shape[1] == rep.kernel_dim:
            np.testing.assert_array_equal(vecs, structural)
            return False
        # fallback: energy-orthonormal directions the form cannot see
        np.testing.assert_allclose(vecs.conj().T @ (ew[:, None] * vecs),
                                   np.eye(rep.kernel_dim), atol=1e-12)
        seen = np.linalg.eigvalsh(vecs.conj().T @ O @ vecs)
        assert np.max(np.abs(seen)) <= 2e-14 * rep.beta
        return True

    def test_presets_modes_windows(self):
        rng = np.random.default_rng(2024)
        fallbacks = []
        for params, length, mode, N in self.CASES:
            x0 = float(rng.uniform(0, 2 * np.pi))
            if self.check(params, N, x0, ObservationWindow(0.0, length), mode):
                fallbacks.append((length, mode, N))
        # roundoff kernels appear in the short windows only, and the
        # resonant one below the critical time exercises the fallback
        lengths = {length for length, _, _ in fallbacks}
        assert 0.5 * T0_RES in lengths
        assert not lengths & {1.0, 1.5 * T0_RES}

    @pytest.mark.parametrize("mode, dim", [("both", 2), ("u_only", 3),
                                           ("v_only", 3)])
    def test_four_member_group(self, mode, dim):
        window = ObservationWindow(0.0, 5.0)
        self.check(FOUR_ZEROS, 3, 0.3, window, mode)
        rep = observability_constants(FOUR_ZEROS, 3, 0.3, window, mode)
        assert rep.kernel_dim == dim


class TestLazyKernelVectors:
    def test_eigh_runs_once_on_first_read(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a) or eigh(a))
        # roundoff adds kernel eigenvalues here: the eigenvector fallback
        rep = observability_constants(GENERIC, 16, 0.0,
                                      ObservationWindow(0.0, 0.5), "u_only")
        assert rep.structural is None
        assert len(calls) == 0
        vecs = rep.kernel_vectors
        assert len(calls) == 1
        assert rep.kernel_vectors is vecs
        assert len(calls) == 1
        np.testing.assert_array_equal(
            vecs, rep.scale[:, None] * eigh(rep.C)[1][:, :rep.kernel_dim])


class TestIngham:
    def test_integer_harmonics_full_period(self):
        direct, inverse = ingham_report(range(-5, 6),
                                        ObservationWindow(0.0, 2 * np.pi))
        assert direct == pytest.approx(2 * np.pi, abs=1e-12)
        assert inverse == pytest.approx(2 * np.pi, abs=1e-12)

    def test_single_frequency(self):
        direct, inverse = ingham_report([3.7], ObservationWindow(0.0, 2.5))
        assert direct == pytest.approx(2.5)
        assert inverse == pytest.approx(2.5)

    def test_subcritical_inverse_decays(self):
        win = ObservationWindow(0.0, 0.9 * 2 * np.pi)
        inv_small = ingham_report(range(-5, 6), win)[1]
        inv_large = ingham_report(range(-20, 21), win)[1]
        assert 0 < inv_large < 0.2 * inv_small

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            ingham_report([1.0, 1.0, 2.0], ObservationWindow(0.0, 1.0))


class TestDividedDifferenceConstants:
    def test_resonant_bounds_positive(self):
        T0 = critical_time(RESONANT)
        lo, hi, eps = divided_difference_constants(
            RESONANT, 8, ObservationWindow(0.0, 1.5 * T0))
        assert 0 < lo <= hi
        assert 0 < eps <= 1.0

    def test_generic_bounds_positive(self):
        lo, hi, eps = divided_difference_constants(
            GENERIC, 6, ObservationWindow(0.0, 2 * np.pi))
        assert 0 < lo <= hi

    @pytest.mark.parametrize("N", [6, 8, 16, 32])
    def test_bounds_ordered_nonnegative(self, N):
        # the benchmark's windows, where roundoff gave lo slightly below 0
        for params, length in ((GENERIC, 0.5), (GENERIC, 1.0),
                               (RESONANT, 0.5 * T0_RES),
                               (RESONANT, 1.5 * T0_RES)):
            lo, hi, _ = divided_difference_constants(
                params, N, ObservationWindow(0.0, length))
            assert 0 <= lo <= hi

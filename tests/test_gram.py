import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ggkdv import gram
from ggkdv.errors import EpsilonUnderflow
from ggkdv.gram import (
    ObservationWindow,
    divided_difference_constants,
    ingham_report,
    observability_constants,
)
from ggkdv.gram import (COINCIDENT_TOL, _centred_kernel, _cluster,
                        _newton_gram, _parity_blocks, _structural_kernel)
from ggkdv.modal import ModalState, energy, reconstruct, trace
from ggkdv.signals import _centred_matrix, _integrate, _phase, _shifted_matrix
from ggkdv.spectral import (PRESETS, PhysicalParams, critical_time,
                            spectrum_table, trace_amplitudes)
from ggkdv.stabilize import _weighted_gramian
from integral_oracle import exp_integral, quad_integral

GENERIC = PRESETS["generic"]
RESONANT = PRESETS["resonant"]


def _trace_amplitudes(params, N, x0):
    """u and v trace amplitudes, frequencies, energy weights and labels,
    all flattened over (branch, k)."""
    table = spectrum_table(params, N)
    u_amp, v_amp = trace_amplitudes(params, N, x0)
    return (u_amp, v_amp, table.omega.ravel(),
            (2 * np.pi * table.norm2).ravel(), table.labels)


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
        # a pair within COINCIDENT_TOL would need the limit t e^{i w1 t}:
        # a resonance
        with pytest.raises(EpsilonUnderflow):
            _newton_gram(np.array([0.0, 5e-13]), np.array([True]),
                         ObservationWindow(0.0, 1.0))

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


def shifted_gram(omega, rate, t0, t1):
    """``integral_{t0}^{t1} e^{i (omega_i - omega_j + 2 i rate) t} dt`` from
    the weighted feedback Gramian's kernel over [0, t1 - t0] at the
    frequencies -omega, with its phases, moved to t0."""
    h = (t1 - t0) / 2
    cis = _phase(omega, h)
    k = _shifted_matrix(-omega, h, rate, np.conj(cis))
    start = np.exp(1j * np.subtract.outer(omega, omega) * t0 - 2 * rate * t0)
    return start * (cis[:, None] * k * np.conj(cis))


class TestTraceGram:
    """The multi-channel trace Gram ``sum_c a_c a_c^H * K``, K the kernel of
    the weighted feedback Gramian (``shifted_gram``) and, unshifted, that of
    ``_integrate``."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(trace_gram_cases())
    # signals e^{0}, e^{it} with channel weights W0 = (1, 0), W1 = (1, 1):
    # diagonal |W|^2 2 pi, off-diagonal <W0, W1> integral e^{-it} = 0
    @example((np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([0.0, 1.0]),
              0.0, 0.0, 2 * np.pi))
    def test_entries_against_quadrature(self, case):
        amps, omega, shift, t0, t1 = case
        outer = sum(np.outer(a, np.conj(a)) for a in amps)
        grams = [shifted_gram(omega, shift.imag / 2, t0, t1) * outer]
        if not shift:
            grams.append(_integrate(np.eye(len(omega)), omega, t0, t1)
                         * outer)
        n = len(omega)
        for i in range(n):
            for j in range(n):
                z = omega[i] - omega[j] + shift
                re, _ = quad(lambda t: (outer[i, j] * np.exp(1j * z * t)).real,
                             t0, t1, epsabs=1e-13, epsrel=1e-13, limit=200)
                im, _ = quad(lambda t: (outer[i, j] * np.exp(1j * z * t)).imag,
                             t0, t1, epsabs=1e-13, epsrel=1e-13, limit=200)
                for G in grams:
                    assert abs(G[i, j] - (re + 1j * im)) <= 1e-10

    @pytest.mark.parametrize("preset", ["generic", "resonant"])
    def test_operators_exactly_hermitian(self, preset):
        params = PRESETS[preset]
        for rate in (0.0, 0.5):
            lam_w = _weighted_gramian(params, 6, 0.7, rate, 3.0)[3]
            assert np.array_equal(lam_w, lam_w.conj().T)


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
        base = exp_integral(omega[:, None] - omega[None, :], win.t0, win.t1)
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
        base = exp_integral(omega[:, None] - omega[None, :], win.t0, win.t1)
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
    group, observed channel), grouped by a scalar loop: a state c is
    unobserved iff every row annihilates it."""
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
                row[g] = amp[g]
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
        rep = observability_constants(params, N, x0, window, mode)
        # the structural kernel of the real folded rows has as many
        # dimensions as the dense null space of the amplitude map at x0
        structural = _structural_kernel(rep.rows, omega)
        dense = scipy.linalg.null_space(
            dense_amplitude_rows(u_amp, v_amp, omega, mode))
        assert structural.shape == dense.shape
        np.testing.assert_allclose(structural.T @ structural,
                                   np.eye(dense.shape[1]), atol=1e-13)

        O = observation_form(params, N, x0, window, mode)
        ref = scipy.linalg.eigh(O, np.diag(ew), eigvals_only=True)
        assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-13 * rep.beta
        assert rep.kernel_dim == int(np.sum(ref <= 1e-14 * ref[-1]))
        vecs = rep.kernel_vectors
        assert vecs.shape == (len(omega), rep.kernel_dim)
        # on either path: energy-orthonormal states the form cannot see
        np.testing.assert_allclose(vecs.conj().T @ (ew[:, None] * vecs),
                                   np.eye(rep.kernel_dim), atol=1e-12)
        seen = np.linalg.eigvalsh(vecs.conj().T @ O @ vecs)
        assert np.max(np.abs(seen), initial=0.0) <= 2e-14 * rep.beta
        if structural.shape[1] == rep.kernel_dim:
            Q = scipy.linalg.orth(vecs)
            assert np.max(np.abs(projector(Q) - projector(dense))) <= 1e-12
            return False
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
        # once per parity block, on the first read only
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        # roundoff adds kernel eigenvalues here: the eigenvector fallback,
        # which takes two directions from C+ and one from C-
        N, window = 16, ObservationWindow(0.0, 0.5)
        rep = observability_constants(GENERIC, N, 0.0, window, "u_only")
        assert calls == []
        vecs = rep.kernel_vectors
        assert calls == [(2 * (N + 1),) * 2, (2 * N,) * 2]
        assert rep.kernel_vectors is vecs
        assert len(calls) == 2
        # energy-orthonormal states the form cannot see
        C, s = folded_complex_form(GENERIC, N, 0.0, window, "u_only")
        w = vecs / s[:, None]
        np.testing.assert_allclose(w.conj().T @ w, np.eye(rep.kernel_dim),
                                   atol=1e-12)
        seen = np.linalg.eigvalsh(w.conj().T @ C @ w)
        assert np.max(np.abs(seen)) <= 2e-14 * rep.beta

    def test_no_kernel_work_before_first_read(self, monkeypatch):
        # the constants need neither an SVD nor the amplitudes at x0
        calls = []
        svd, amplitudes = np.linalg.svd, gram.trace_amplitudes
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw:
                            calls.append("svd") or svd(*args, **kw))
        monkeypatch.setattr(gram, "trace_amplitudes", lambda p, N, x0, *rest:
                            calls.append(x0) or amplitudes(p, N, x0, *rest))
        reports = [observability_constants(PRESETS[preset], 6, 0.9365,
                                           ObservationWindow(0.0, length),
                                           mode)
                   for preset, length in OBS_WINDOWS for mode in MODES]
        assert calls == [0.0] * len(reports)
        for rep in reports:
            rep.kernel_vectors
        assert set(calls) == {0.0, "svd"}


class TestKernelVectorsAreUnobservedStates:
    """Each kernel vector is a state whose traces at x0, as ``modal.trace``
    builds them, carry no energy over the window: the convention of
    ``trace_amplitudes``, on the structural path and the fallback alike."""

    @staticmethod
    def check(params, N, x0, window, mode):
        rep = observability_constants(params, N, x0, window, mode)
        vecs = rep.kernel_vectors
        ew = _trace_amplitudes(params, N, x0)[3]
        np.testing.assert_allclose(vecs.conj().T @ (ew[:, None] * vecs),
                                   np.eye(rep.kernel_dim), atol=1e-12)
        for col in vecs.T:
            state = ModalState(N, col.reshape(2, 2 * N + 1))
            u, v = trace(params, state, x0)
            seen = sum(sig.l2_norm_sq(window.t0, window.t1)
                       for sig, only in ((u, "u_only"), (v, "v_only"))
                       if mode in ("both", only))
            assert seen <= 2e-14 * rep.beta * energy(params, state)

    def test_presets_windows_modes(self):
        # at most 9.0e-15 beta measured, both paths, N up to 32
        for preset, length in OBS_WINDOWS:
            for mode in MODES:
                for N in (6, 16):
                    for x0 in (0.0, 0.9365):
                        self.check(PRESETS[preset], N, x0,
                                   ObservationWindow(0.0, length), mode)

    def test_four_member_group(self):
        for mode in MODES:
            for x0 in (0.0, 0.3, 1.1):
                self.check(FOUR_ZEROS, 3, x0, ObservationWindow(0.0, 5.0),
                           mode)


def observation_form(params, N, x0, window, mode):
    """The observation form over [t0, t1] with the x0 phases in its
    amplitudes: the Hermitian O with ``c^H O c`` the observed energy of
    the traces ``sum_j c_j amps_j e^{i omega_j t}`` of a state c."""
    u_amp, v_amp, omega, _, _ = _trace_amplitudes(params, N, x0)
    base = exp_integral(omega[None, :] - omega[:, None], window.t0, window.t1)
    O = sum(np.outer(np.conj(amp), amp) * base
            for amp, only in ((u_amp, "u_only"), (v_amp, "v_only"))
            if mode in ("both", only))
    return (O + O.conj().T) / 2


def folded_complex_form(params, N, x0, window, mode):
    """The observation form folded by the energy weights: the complex
    Hermitian matrix whose eigenvalues are the observability constants,
    and the scaling s with ``c = s w`` for its vectors w."""
    ew = _trace_amplitudes(params, N, x0)[3]
    s = 1.0 / np.sqrt(ew)
    return s[:, None] * observation_form(params, N, x0, window, mode) * s, s


OBS_WINDOWS = [("generic", 0.5), ("generic", 1.0),
               ("resonant", 0.5 * T0_RES), ("resonant", 1.5 * T0_RES)]
MODES = ["both", "u_only", "v_only"]
# the real and the complex form agree to a few eps * beta (at most 3.9e-15
# beta at N=64 over OBS_WINDOWS and MODES, with one BLAS thread or two)
FORM_ROUNDOFF = 5e-15


class TestRealForm:
    """x0 and the window's centre enter the observation form only through a
    unitary diagonal, so the constants come from one real symmetric form."""

    @pytest.mark.parametrize("N", [6, 16])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("preset, length", OBS_WINDOWS)
    def test_x0_invariance_exact(self, preset, length, mode, N):
        window = ObservationWindow(0.0, length)
        ref = observability_constants(PRESETS[preset], N, 0.0, window, mode)
        for x0 in (0.9365, 2.5):
            rep = observability_constants(PRESETS[preset], N, x0, window, mode)
            np.testing.assert_array_equal(rep.eigenvalues, ref.eigenvalues)
            np.testing.assert_array_equal(
                (rep.alpha, rep.beta, rep.kernel_dim),
                (ref.alpha, ref.beta, ref.kernel_dim))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("preset, length", OBS_WINDOWS)
    def test_agrees_with_complex_form(self, preset, length, mode):
        params, N = PRESETS[preset], 64
        window = ObservationWindow(0.0, length)
        for x0 in (0.0, 2.5):
            rep = observability_constants(params, N, x0, window, mode)
            C, s = folded_complex_form(params, N, x0, window, mode)
            ref = np.linalg.eigvalsh(C)
            beta = ref[-1]
            assert abs(rep.beta - beta) <= 1e-13 * beta
            assert np.max(np.abs(rep.eigenvalues - ref)) <= FORM_ROUNDOFF * beta
            # the same kernel count, unless an eigenvalue lies within that
            # roundoff of the kernel threshold (resonant, 0.5 T0, both: the
            # 45th eigenvalue is 9.53e-15 beta at 32 digits, and either
            # form counts 44 or 45 with the BLAS thread count and x0)
            lo, hi = (int(np.sum(ref <= (1e-14 + sign * FORM_ROUNDOFF) * beta))
                      for sign in (-1, 1))
            assert lo <= rep.kernel_dim <= hi
            # on either path: energy-orthonormal states the complex form
            # cannot see
            w = rep.kernel_vectors / s[:, None]
            np.testing.assert_allclose(w.conj().T @ w,
                                       np.eye(rep.kernel_dim), atol=1e-12)
            seen = np.linalg.eigvalsh(w.conj().T @ C @ w)
            assert np.max(np.abs(seen), initial=0.0) <= 2e-14 * beta


def dense_real_form(params, N, length, mode):
    """The real folded form S R S over the centred window as one dense
    matrix, its entries from ``integral`` over [0, h]."""
    u_amp, v_amp, omega, ew, _ = _trace_amplitudes(params, N, 0.0)
    h = length / 2
    base = 2 * exp_integral(omega[:, None] - omega[None, :], 0.0, h).real
    R = sum(np.outer(amp.real, amp.real) * base
            for amp, only in ((u_amp, "u_only"), (v_amp, "v_only"))
            if mode in ("both", only))
    s = 1.0 / np.sqrt(ew)
    return s[:, None] * R * s


def dense_newton_gram(omega, linked, t0, t1):
    """``M K M^H``: the Gram of the exponentials mapped to the Newton basis
    by one dense amplitude matrix M, the identity but for the difference
    rows."""
    pairs = np.flatnonzero(linked)
    M = np.eye(len(omega))
    inv = 1.0 / (omega[pairs] - omega[pairs + 1])
    M[pairs + 1, pairs] = inv
    M[pairs + 1, pairs + 1] = -inv
    K = exp_integral(np.subtract.outer(omega, omega), t0, t1)
    return M @ K @ M.T


class TestNewtonMap:
    """The Newton Gram from difference rows and columns of the Gram of the
    exponentials, against the dense map."""

    @pytest.mark.parametrize("N", [6, 16, 32])
    @pytest.mark.parametrize("preset, t0, length",
                             [(preset, 0.0, length)
                              for preset, length in OBS_WINDOWS]
                             + [("resonant", 1.3, 1.5 * T0_RES)])
    def test_against_dense_map(self, preset, t0, length, N):
        # the clustering of divided_difference_constants: the resonant
        # families pair up, the generic ones stay singletons
        table = spectrum_table(PRESETS[preset], N)
        omega = np.unique(table.omega)
        epsilon = min(1.0, float(np.min(np.abs(np.diff(table.omega)))) / 4)
        linked, _ = _cluster(omega, epsilon)
        assert linked.any() == (preset == "resonant")
        G = _newton_gram(omega, linked, ObservationWindow(t0, t0 + length))
        ref = dense_newton_gram(omega, linked, t0, t0 + length)
        assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_close_and_apart_pairs(self):
        # the close pair linked is a resonance; left as two exponentials,
        # it sits beside a difference row
        omega = np.array([-2.0, 0.0, 0.5 * COINCIDENT_TOL, 3.0, 3.25, 7.0])
        window = ObservationWindow(0.4, 2.1)
        with pytest.raises(EpsilonUnderflow):
            _newton_gram(omega, np.array([False, True, False, True, False]),
                         window)
        linked = np.array([False, False, False, True, False])
        G = _newton_gram(omega, linked, window)
        ref = dense_newton_gram(omega, linked, 0.4, 2.1)
        assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_kernel_built_once_without_left(self, monkeypatch):
        # one symmetric centred kernel, mapped in place to the Newton basis
        columns = []
        kernel = gram._centred_matrix

        def spy(*args, **kw):
            columns.append(args[1])
            return kernel(*args, **kw)

        monkeypatch.setattr(gram, "_centred_matrix", spy)
        omega = np.array([-2.0, 0.0, 0.25, 3.0, 3.25, 7.0])
        _newton_gram(omega, np.array([False, True, False, True, False]),
                     ObservationWindow(0.0, 1.0))
        assert columns == [None]


class TestParityForm:
    """The swap k <-> -k splits the real form into two blocks over k >= 0,
    built from the real kernel 2 sin(delta h) / delta."""

    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("preset, length", OBS_WINDOWS)
    def test_kernel_against_exp_poly_integral(self, preset, length, N):
        # every frequency difference and sum of the blocks (at most
        # 2.2e-16 * 2h measured)
        omega = spectrum_table(PRESETS[preset], N).omega[:, N:].ravel()
        h = length / 2
        for delta in (omega[:, None] - omega, omega[:, None] + omega):
            ref = 2 * exp_integral(delta, 0.0, h).real
            assert np.max(np.abs(_centred_kernel(delta, h) - ref)) \
                <= 1e-15 * 2 * h

    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("preset, length", OBS_WINDOWS)
    def test_parity_kernels_against_exp_poly_integral(self, preset, length, N):
        # the kernels from the per-frequency sines, at the bound of the
        # centred kernel (at most 2.0e-16 * 2h measured); without the low
        # part of the exact phase products the resonant windows read
        # 7.2e-15 and 9.8e-15 * 2h at N=128
        omega = spectrum_table(PRESETS[preset], N).omega[:, N:].ravel()
        h = length / 2
        kernels = _centred_matrix(omega, None, h, _phase(omega, h),
                                  (np.subtract, np.add))
        for K, x in zip(kernels, (omega[:, None] - omega,
                                  omega[:, None] + omega)):
            ref = 2 * exp_integral(x, 0.0, h).real
            assert np.max(np.abs(K - ref)) <= 1e-15 * 2 * h

    def test_parity_kernels_long_window(self):
        # phases w h near 1e27 stay exact: every entry against 2 sin(x h) / x
        # of the exact sum or difference x at 60 digits, within 4.1e-16 of
        # its envelope 2 / |x| measured, and 2h where x = 0
        mp = pytest.importorskip("mpmath")
        N, h = 16, 5e19
        omega = spectrum_table(RESONANT, N).omega[:, N:].ravel()
        kernels = _centred_matrix(omega, None, h, _phase(omega, h),
                                  (np.subtract, np.add))
        for K, sign in zip(kernels, (-1, 1)):
            assert np.all(np.isfinite(K))
            for i, j in np.ndindex(K.shape):
                with mp.workdps(60):
                    x = mp.mpf(omega[i]) + sign * mp.mpf(omega[j])
                    err = float(abs(K[i, j] - 2 * mp.sin(x * h) / x) * abs(x)
                                / 2) if x else None
                if err is None:
                    assert K[i, j] == 2 * h
                else:
                    assert err <= 2e-15

    @pytest.mark.parametrize("N", [0, 1, 6])
    def test_blocks_leave_rows_alone(self, N):
        omega = spectrum_table(GENERIC, N).omega.ravel()
        rows = trace_amplitudes(GENERIC, N, 0.0).real
        kept = rows.copy()
        _parity_blocks(rows, omega, 0.5)
        np.testing.assert_array_equal(rows, kept)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("preset, length", OBS_WINDOWS)
    def test_blocks_against_dense_real_form(self, preset, length, mode):
        for N in (0, 1, 2, 6, 16, 32, 64):
            rep = observability_constants(PRESETS[preset], N, 0.0,
                                          ObservationWindow(0.0, length), mode)
            ref = np.linalg.eigvalsh(
                dense_real_form(PRESETS[preset], N, length, mode))
            assert rep.eigenvalues.shape == ref.shape
            assert np.max(np.abs(rep.eigenvalues - ref)) \
                <= FORM_ROUNDOFF * ref[-1]

    def test_eigen_solves_stay_half_size(self, monkeypatch):
        sizes = []
        for name in ("eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, solver=solver:
                                sizes.append(a.shape) or solver(a))
        for N in (6, 64):
            for preset, length in OBS_WINDOWS:
                for mode in MODES:
                    sizes.clear()
                    rep = observability_constants(
                        PRESETS[preset], N, 0.9365,
                        ObservationWindow(0.0, length), mode)
                    rep.kernel_vectors
                    assert sizes[:2] == [(2 * (N + 1),) * 2, (2 * N,) * 2]
                    assert max(max(shape) for shape in sizes) == 2 * (N + 1)


def mp_folded_form(mp, params, N, length, mode):
    """The real folded form S R S over the centred window at the working
    precision of ``mp``, from the closed-form spectrum and eigenvectors
    evaluated there."""
    a, c, d, r = (mp.mpf(p) for p in (params.a, params.c, params.d,
                                      params.r))
    rows, omega = [], []
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
            u = 2 * a * c
            s = 1 / mp.sqrt(2 * mp.pi * (u**2 + a * c / d * v**2))
            rows.append([amp * s for amp, only in ((u, "u_only"), (v, "v_only"))
                         if mode in ("both", only)])
    h = mp.mpf(length) / 2
    n = len(omega)
    C = mp.matrix(n, n)
    for i in range(n):
        for j in range(i + 1):
            delta = omega[i] - omega[j]
            K = 2 * h if delta == 0 else 2 * mp.sin(delta * h) / delta
            C[i, j] = C[j, i] = K * mp.fsum(x * y for x, y in
                                            zip(rows[i], rows[j]))
    return C


class TestMpmathOracle:
    """Every eigenvalue against the folded form at 40 digits.  Measured:
    beta within 9.1e-16 relative, alpha within 2.9e-16 beta, the rest
    within 1.7e-14 beta (resonant eigenvalue 27, whose double frequencies
    lose digits to the cancellation in the slow branch)."""

    @pytest.mark.parametrize("mode", ["both", "u_only"])
    @pytest.mark.parametrize("preset, length",
                             [("generic", 0.4), ("generic", 0.5),
                              ("generic", 1.0), ("resonant", 0.5 * T0_RES)])
    def test_eigenvalues(self, preset, length, mode):
        mp = pytest.importorskip("mpmath")
        N = 8
        with mp.workdps(40):
            ref = np.array(sorted(float(x) for x in mp.eigsy(
                mp_folded_form(mp, PRESETS[preset], N, length, mode),
                eigvals_only=True)))
        rep = observability_constants(PRESETS[preset], N, 0.0,
                                      ObservationWindow(0.0, length), mode)
        beta = ref[-1]
        assert abs(rep.beta - beta) <= 4e-15 * beta
        assert abs(rep.alpha - max(ref[0], 0.0)) <= 4e-15 * beta
        assert np.max(np.abs(rep.eigenvalues - ref)) <= 3e-14 * beta
        assert rep.kernel_dim == int(np.sum(ref <= 1e-14 * beta))


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

    @pytest.mark.parametrize("length", [0.3, 2.0, 2 * np.pi, 37.0, 1e3])
    def test_against_uncentred_complex_gram(self, length):
        # the extreme eigenvalues of the complex Gram over [t0, t1] from
        # the test-side closed form, for non-integer families and t0 != 0
        rng = np.random.default_rng(int(length * 10))
        for _ in range(10):
            freqs = np.sort(rng.uniform(-16.0, 16.0, int(rng.integers(3, 25))))
            t0 = float(rng.uniform(-7.0, 7.0))
            direct, inverse = ingham_report(
                freqs, ObservationWindow(t0, t0 + length))
            G = exp_integral(np.subtract.outer(freqs, freqs), t0, t0 + length)
            ref = np.linalg.eigvalsh((G + G.conj().T) / 2)
            beta = ref[-1]
            assert abs(direct - beta) <= 5e-15 * beta
            assert abs(inverse - ref[0]) <= 5e-15 * beta


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

from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggkdv import signals
from ggkdv.signals import (
    ExponentialSignal,
    _centred_matrix,
    _integrate,
    _phase,
    _shifted_matrix,
    _signals,
    stack_terms,
    total_l2_norm_sq,
)
from ggkdv.spectral import PRESETS, critical_time, spectrum_table
from integral_oracle import exp_integral, quad_integral

T0 = critical_time(PRESETS["resonant"])


def one_term(z, t0, t1):
    """``_integrate`` of one unit term e^{i z t} against one zero column:
    ``integral_{t0}^{t1} e^{i z t} dt``."""
    return _integrate(np.ones((1, 1)), np.array([z]), t0, t1,
                      np.zeros(1))[0, 0]


class TestExpPolyIntegral:
    """``integral e^{i z t} dt`` of one term through ``_integrate``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            z = rng.uniform(-20, 20)
            t0, t1 = sorted(rng.uniform(-3, 3, size=2))
            want = quad_integral(lambda t: np.exp(1j * z * t), t0, t1)
            got = one_term(z, t0, t1)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("z", [1e-12, 1e-9, 1e-6, 1e-4, 0.3])
    def test_near_resonant_series_regime(self, z):
        # tiny frequencies take the 2h sinc(x h / pi) branch at |x h| < 1
        got = one_term(z, 0.0, 1.0)
        want = quad_integral(lambda t: np.exp(1j * z * t), 0.0, 1.0)
        assert abs(got - want) <= 1e-13

    def test_complex_frequency(self):
        # z with positive imaginary part decays: the weighted Gramian's
        # kernel, integral_0^2 e^{-2 s} e^{-i (w_0 - w_1) s} ds at w = (0, 3),
        # rate 1, with its phases
        z, w = 3.0 + 2.0j, np.array([0.0, 3.0])
        cis = _phase(w, 1.0)
        got = np.conj(cis[0]) * _shifted_matrix(w, 1.0, 1.0, cis)[0, 1] \
            * cis[1]
        want = quad_integral(lambda t: np.exp(1j * z * t), 0.0, 2.0)
        assert abs(got - want) <= 1e-10

    def test_long_horizon_no_overflow(self):
        # the zero frequency reads 2h = T, and no phase overflows
        with np.errstate(all="raise"):
            got = _integrate(np.eye(2), np.array([0.0, 1.0]), 0.0, 1e20,
                             np.zeros(1))[:, 0]
        assert got[0] == 1e20
        assert abs(got[1]) <= 2.0

    def test_directed_reversal(self):
        z = 2.7
        fwd = one_term(z, 0.0, 1.5)
        bwd = one_term(z, 1.5, 0.0)
        assert fwd == pytest.approx(-bwd)


class TestExpIntegralMatrix:
    """``_integrate`` against one zero column over many rows at once."""

    def test_matches_scalar(self):
        rng = np.random.default_rng(1)
        delta = rng.uniform(-30, 30, size=(4, 5))
        delta[0, 0] = 0.0
        delta[1, 2] = 1e-10
        out = _integrate(np.eye(20), delta.ravel(), 0.0, 2.0,
                         np.zeros(1)).reshape(4, 5)
        for i in range(4):
            for j in range(5):
                want = one_term(delta[i, j], 0.0, 2.0)
                assert abs(out[i, j] - want) <= 1e-12

    def test_zero_gives_length(self):
        out = _integrate(np.eye(4), np.zeros(4), 1.0, 4.0, np.zeros(1))
        assert np.allclose(out, 3.0)


class TestExponentialSignal:
    def test_from_terms_merges_and_drops(self):
        sig = ExponentialSignal.from_terms(
            [(1.0, 2.0, 0), (2.0, 2.0, 0), (5.0, 3.0, 0), (-5.0, 3.0, 0)]
        )
        assert sig.terms == ((3.0 + 0.0j, 2.0, 0),)

    def test_nonzero_degree_rejected(self):
        # terms are (amp, freq, 0): no signal holds t^d e^{i freq t}, d > 0
        with pytest.raises(ValueError, match="degree 0"):
            ExponentialSignal.from_terms([(1.0, 2.0, 0), (1.0, 4.0, 1)])
        raw = ExponentialSignal(((1.0, 4.0, 1),))
        for use in (lambda: raw.evaluate(0.5),
                    lambda: raw.l2_norm_sq(0.0, 1.0),
                    lambda: stack_terms([raw])):
            with pytest.raises(ValueError, match="degree 0"):
                use()

    def test_zero_signal_falsy(self):
        assert not ExponentialSignal()
        assert ExponentialSignal(((1.0, 0.0, 0),))

    def test_add_and_scale(self):
        # the sum of two signals: their terms, the shared key merged
        a = ExponentialSignal(((1.0, 1.0, 0),))
        b = ExponentialSignal(((2.0, 1.0, 0), (1.0, 4.0, 0)))
        s = ExponentialSignal.from_terms(a.terms + b.terms)
        assert s.terms == ((3.0 + 0.0j, 1.0, 0), (1.0 + 0.0j, 4.0, 0))
        t = np.linspace(0, 1, 7)
        assert np.allclose(s.evaluate(t), a.evaluate(t) + b.evaluate(t))

    def test_evaluate_against_term_loop(self):
        # one np.exp over all terms, against the sum of the terms one by
        # one; the order of the sum differs, so allow a few ulps of the
        # largest term
        rng = np.random.default_rng(7)
        terms = [(complex(*rng.standard_normal(2)), rng.uniform(-40, 40), 0)
                 for _ in range(30)]
        terms.append(terms[0])  # a repeated key, as a raw tuple may hold
        sig = ExponentialSignal(tuple(terms))
        t = np.linspace(-3.0, 3.0, 41)
        want = sum(amp * np.exp(1j * f * t) for amp, f, _ in terms)
        bound = 1e-14 * sum(abs(amp) for amp, _, _ in terms)
        assert np.max(np.abs(sig.evaluate(t) - want)) <= bound
        got = sig.evaluate(0.7)
        assert isinstance(got, complex)
        assert abs(got - complex(sum(amp * np.exp(0.7j * f)
                                     for amp, f, _ in terms))) <= bound
        assert ExponentialSignal().evaluate(0.7) == 0
        assert ExponentialSignal().evaluate(t).shape == t.shape

    def test_total_l2_norm_sq_against_quadrature(self):
        rng = np.random.default_rng(2)
        terms1 = [(complex(*rng.standard_normal(2)), rng.uniform(-10, 10), 0)
                  for _ in range(4)]
        terms2 = [(complex(*rng.standard_normal(2)), rng.uniform(-10, 10), 0)
                  for _ in range(3)]
        s1 = ExponentialSignal.from_terms(terms1)
        s2 = ExponentialSignal.from_terms(terms2)
        want = quad_integral(lambda t: abs(s1.evaluate(t)) ** 2
                             + abs(s2.evaluate(t)) ** 2, 0.0, 1.7).real
        assert abs(total_l2_norm_sq([s1, s2], 0.0, 1.7) - want) <= 1e-9

    def test_bilinear_against_quadrature(self):
        rng = np.random.default_rng(3)
        terms1 = [(complex(*rng.standard_normal(2)), rng.uniform(-5, 5), 0)
                  for _ in range(3)]
        terms2 = [(complex(*rng.standard_normal(2)), rng.uniform(-5, 5), 0)
                  for _ in range(3)]
        s1 = ExponentialSignal.from_terms(terms1)
        s2 = ExponentialSignal.from_terms(terms2)
        for t0 in (0.0, 0.3):  # on and off the origin
            want = quad_integral(lambda t: s1.evaluate(t) * s2.evaluate(t),
                                 t0, 2.0)
            assert abs(s1.bilinear_integral(s2, t0, 2.0) - want) <= 1e-9

    def test_norm_nonnegative_and_zero_only_for_zero(self):
        sig = ExponentialSignal(((1.0, 5.0, 0), (-1.0, 5.0 + 1e-3, 0)))
        n = sig.l2_norm_sq(0.0, 1.0)
        assert 0 < n < 1e-3
        assert ExponentialSignal().l2_norm_sq(0.0, 1.0) == 0.0


class TestMpmathOracle:
    """The test-side closed form ``integral_oracle.exp_integral`` against
    40-digit mpmath quadrature: at x = 0, near it and far from it, real and
    complex, forward and backward."""

    SCALES = (0.0, 1e-12, 0.49, 0.51, 50.0)     # |x| * t_scale
    DIRECTIONS = (1.0, np.exp(0.7j))             # real and complex x
    INTERVALS = ((0.0, 1.0), (0.3, 2.0), (-1.5, 0.7))

    @pytest.mark.parametrize("t0, t1", INTERVALS)
    def test_relative_error(self, t0, t1):
        # at most 1.1e-16 measured: the final rounding to double
        mp = pytest.importorskip("mpmath")
        t_scale = max(abs(t0), abs(t1), 1.0)
        x = np.array([[s * d / t_scale for s in self.SCALES]
                      for d in self.DIRECTIONS])
        want = np.empty(x.shape, dtype=complex)
        with mp.workdps(40):
            nodes = mp.linspace(mp.mpf(t0), mp.mpf(t1), 9)
            for idx in np.ndindex(x.shape):
                xx = mp.mpc(x[idx])
                want[idx] = complex(mp.quad(lambda t: mp.expj(xx * t), nodes))
        for a, b, sign in ((t0, t1, 1), (t1, t0, -1)):
            rel = np.abs(exp_integral(x, a, b) - sign * want) / np.abs(want)
            assert np.max(rel) <= 4e-16


class TestHermitianKernel:
    """``_centred_matrix(w, None, ...)``: the symmetric K_h(w_i - w_j), built
    on and above the diagonal a block of rows at a time, and the weighted
    kernel ``_shifted_matrix`` built the same way."""

    H = 0.85

    @staticmethod
    def family(n):
        # every seventh frequency 1e-9 from its predecessor, on the sinc
        # branch, and one repeated
        rng = np.random.default_rng(n)
        z = rng.uniform(-40, 40, n)
        z[1::7] = z[0:n - 1:7] + 1e-9
        z[2] = z[0]
        return z

    def test_matches_general_kernel(self):
        z = self.family(300)
        H = _centred_matrix(z, None, self.H, _phase(z, self.H),
                            [np.subtract])[0]
        K = _centred_matrix(z, -z, self.H, _phase(np.concatenate([z, -z]),
                                                  self.H), [np.add])[0]
        eps = np.finfo(float).eps
        assert np.all(np.abs(H - K) <= eps * np.abs(K))
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 1e-9])
    def test_complex_frequencies_pair_with_conjugates(self, alpha,
                                                      monkeypatch):
        # the weighted kernel at rate alpha, entry (i, j) for the frequency
        # difference shifted by 2 i alpha: its blocks, on and above the
        # diagonal, equal one block over the whole matrix bit for bit; the
        # close pairs, and at alpha = 1e-9 the diagonal, take the series
        z = self.family(300)
        cis = _phase(z, self.H)
        K = _shifted_matrix(z, self.H, alpha, cis)
        monkeypatch.setattr(signals, "_BLOCK_ENTRIES", z.size ** 2)
        assert np.array_equal(K, _shifted_matrix(z, self.H, alpha, cis))
        assert np.array_equal(K, K.conj().T)

    def test_evaluates_about_half_the_entries(self, monkeypatch):
        count = [0]
        blocks = signals._row_blocks

        def counted(n_rows, n_cols, symmetric):
            for rows, first in blocks(n_rows, n_cols, symmetric):
                count[0] += (rows.stop - rows.start) * (n_cols - first)
                yield rows, first

        monkeypatch.setattr(signals, "_row_blocks", counted)
        n = 258   # the control operator's size at N = 64
        z = self.family(n)
        _centred_matrix(z, -z, self.H, _phase(np.concatenate([z, -z]),
                                              self.H), [np.add])
        assert count[0] == n * n
        for kernel in (lambda: _centred_matrix(z, None, self.H, _phase(
                           z, self.H), [np.subtract]),
                       lambda: _shifted_matrix(z, self.H, 0.5, _phase(
                           z, self.H))):
            count[0] = 0
            kernel()
            assert count[0] <= 0.6 * n * n


class TestLargePhases:
    """Entries whose phase x T exceeds 1e5 rad, against 40-digit mpmath.
    A phase rounded as (z_i + z_j) T is off by about eps |x T|, which costs
    such entries up to about 4e-7 relative."""

    @staticmethod
    def sampled_errors(zr, zc, t1, K, rng, count=200):
        mp = pytest.importorskip("mpmath")
        far = np.argwhere(np.abs(np.add.outer(zr.real, zc.real)) * t1 > 1e5)
        assert len(far) >= count
        errors = []
        with mp.workdps(40):
            T = mp.mpf(t1)
            for i, j in far[rng.choice(len(far), count, replace=False)]:
                x = (mp.mpc(zr[i].real, np.imag(zr[i]))
                     + mp.mpc(zc[j].real, np.imag(zc[j])))
                want = (mp.expj(x * T) - 1) / (1j * x)
                errors.append(float(abs(K[i, j] - want) / abs(want)))
        return np.array(errors)

    def test_control_operator_and_duhamel_kernels(self):
        # the kernels of _integrate with their phases: the Hermitian one
        # of the control cost and the Duhamel step's
        rng = np.random.default_rng(28)
        omega = spectrum_table(PRESETS["resonant"], 64).omega.ravel()
        T = 1.2 * T0
        freqs = np.unique(-omega)  # a control's frequencies
        for zr, zc, K in (
                (omega, -omega, _integrate(np.eye(omega.size), omega, 0.0, T)),
                (freqs, -omega, _integrate(np.eye(freqs.size), freqs, 0.0, T,
                                           -omega))):
            assert np.max(self.sampled_errors(zr, zc, T, K, rng)) <= 1e-13

    @pytest.mark.parametrize("rate", [0.01, 0.5])
    def test_weighted_gramian_kernel(self, rate):
        # Lambda_w's entries e^{-i w_i h} k[i, j] e^{i w_j h}, the integrals
        # of e^{i (z_i - conj(z_j)) t} at z = i rate - omega
        rng = np.random.default_rng(29)
        omega = spectrum_table(PRESETS["resonant"], 32).omega.ravel()
        z, Th = 1j * rate - omega, 1.5 * T0
        cis = _phase(omega, Th / 2)
        K = (np.conj(cis)[:, None] * _shifted_matrix(omega, Th / 2, rate, cis)
             * cis)
        errors = self.sampled_errors(z, -np.conj(z), Th, K, rng)
        assert np.max(errors) <= 1e-13


class TestKernelSymmetries:
    """Bit for bit: over the odd spectra, the centred kernel K_h(w_i - w_j)
    is symmetric and unchanged under the swap P: k <-> -k, and the weighted
    kernel equals its conjugate transpose and, under P, its conjugate."""

    @pytest.mark.parametrize("N", [6, 16, 64])
    @pytest.mark.parametrize("preset", ["generic", "resonant"])
    def test_hermitian_and_swap(self, preset, N):
        omega = spectrum_table(PRESETS[preset], N).omega
        assert np.array_equal(omega[:, ::-1], -omega)
        swap = np.arange(omega.size).reshape(omega.shape)[:, ::-1].ravel()
        omega = omega.ravel()
        h = 0.5 if preset == "generic" else 0.6 * T0
        K = _centred_matrix(omega, None, h, _phase(omega, h),
                            [np.subtract])[0]
        assert np.array_equal(K, K.T)
        assert np.array_equal(K[np.ix_(swap, swap)], K)
        for rate, h in ((0.5, 1.0), (0.25, 0.75 * T0), (1e-9, 0.5)):
            K = _shifted_matrix(omega, h, rate, _phase(omega, h))
            assert np.array_equal(K, K.conj().T)
            assert np.array_equal(K[np.ix_(swap, swap)], K.conj())


def dict_merge(terms):
    """The dict merge that signals were built by before the array merge:
    amplitudes summed per frequency in the order given, from 0.0, zeros
    dropped, frequencies sorted."""
    merged = {}
    for amp, freq, _ in terms:
        merged[float(freq)] = merged.get(float(freq), 0.0) + complex(amp)
    return tuple((amp, freq, 0) for freq, amp in sorted(merged.items())
                 if amp != 0.0)


def dict_union(signals_):
    """``stack_terms`` as it was built before, over the signals' terms."""
    keys = sorted({f for sig in signals_ for _, f, _ in sig.terms})
    index = {key: i for i, key in enumerate(keys)}
    amps = np.zeros((len(signals_), len(keys)), dtype=complex)
    for row, sig in enumerate(signals_):
        for amp, f, _ in sig.terms:
            amps[row, index[f]] += amp
    return amps, np.array(keys)


def bits(terms):
    """Terms as exact strings: -0.0 and 0.0 differ."""
    return [(complex(a).real.hex(), complex(a).imag.hex(), float(f).hex(),
             int(d)) for a, f, d in terms]


# few distinct values, so that keys repeat and sums cancel to (-)0.0
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])
TERMS = st.lists(st.tuples(st.builds(complex, PARTS, PARTS),
                           st.sampled_from([0.0, -0.0, 1.5, -2.0, 7.0]),
                           st.just(0)), max_size=12)


class TestArrayMerge:
    """Signals built from arrays by one vectorized merge carry the terms of
    the dict merge bit for bit, and keep their stacked arrays."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(TERMS)
    def test_from_terms_matches_dict_merge(self, terms):
        sig = ExponentialSignal.from_terms(terms)
        assert bits(sig.terms) == bits(dict_merge(terms))
        amps, freqs = sig._stacked
        assert bits(zip(amps[0], freqs, repeat(0))) == bits(sig.terms)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.tuples(PARTS, PARTS, PARTS, PARTS,
                              st.sampled_from([0.0, -0.0, 1.5, -2.0])),
                    min_size=1, max_size=10))
    def test_rows_and_stack_terms(self, cols):
        # two amplitude rows over one frequency array, as the controls of
        # a plan: one merge, then per row the dict merge's terms; stacked,
        # the shortcut over shared keys and the general union both give
        # the dict union's arrays
        re0, im0, re1, im1, freqs = map(np.array, zip(*cols))
        amps = np.empty((2, len(freqs)), dtype=complex)
        amps.real, amps.imag = [re0, re1], [im0, im1]  # keeps -0.0
        sigs = list(_signals(amps, freqs))
        for sig, row in zip(sigs, amps):
            assert bits(sig.terms) == bits(dict_merge(zip(row, freqs,
                                                          repeat(0))))
        raw = [ExponentialSignal(sig.terms) for sig in sigs]
        want = dict_union(sigs)
        for got in (stack_terms(sigs), stack_terms(raw),
                    stack_terms(sigs + [ExponentialSignal()])):
            assert np.array_equal(got[0][:2], want[0])
            for row in range(2):
                assert bits(zip(got[0][row], got[1], repeat(0))) \
                    == bits(zip(want[0][row], want[1], repeat(0)))

    def test_shared_keys_reuse_the_arrays(self):
        amps = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=complex)
        freqs = np.array([2.0, -1.0, 2.0])
        f, g = _signals(amps, freqs)
        assert f.terms == ((2.0 + 0j, -1.0, 0), (4.0 + 0j, 2.0, 0))
        stacked, union = stack_terms([f, g])
        assert union is f._stacked[1]
        assert np.array_equal(stacked, [[2.0, 4.0], [5.0, 10.0]])
        assert stack_terms([])[0].shape == (0, 0)


class TestCentredKernel:
    """The real kernel K_h(x) = 2 sin(x h) / x of the signal integrals,
    by the addition formula from exact phases, against 40-digit mpmath."""

    ROWS = np.array([0.0, 1e-9, 3.7, -3.7, 2e5 + 0.25, -1.3e6, 40.0])
    COLS = np.array([0.0, -1e-9, -3.7 + 1e-12, 5.5, 1e6, 1.3e6 + 1e-3])

    @pytest.mark.parametrize("h", [0.8, -0.8, 60.0, -1e-7])
    def test_against_mpmath(self, h):
        # rows != cols, phases |x h| up to 9e7, x near and at 0, negative h
        # (a backward Duhamel step); within 1.8e-16 of the envelope
        # min(2 |h|, 2 / |x|) measured
        mp = pytest.importorskip("mpmath")
        assert np.max(np.abs(self.ROWS)) * 0.8 > 1e5
        for rows, cols, op in ((self.ROWS, self.COLS, np.add),
                               (self.ROWS, None, np.subtract)):
            w = rows if cols is None else np.concatenate([rows, cols])
            K = _centred_matrix(rows, cols, h, _phase(w, h), [op])[0]
            cols = rows if cols is None else cols
            sign = 1 if op is np.add else -1
            with mp.workdps(40):
                for i, j in np.ndindex(K.shape):
                    x = mp.mpf(rows[i]) + sign * mp.mpf(cols[j])
                    want = 2 * mp.sin(x * h) / x if x else 2 * mp.mpf(h)
                    envelope = 2 / max(abs(x), 1 / mp.mpf(abs(h)))
                    assert abs(K[i, j] - want) <= 1e-15 * envelope

    @pytest.mark.parametrize("t0, t1", [(0.0, 1.7), (0.4, 2.1), (0.0, -1.2),
                                        (-1.5, 0.7)])
    def test_integrate_matches_oracle(self, t0, t1):
        # against the long-double closed form, in the Hermitian mode
        # (costs) and against other columns (Duhamel steps)
        rng = np.random.default_rng(30)
        freqs = rng.uniform(-40, 40, 50)
        freqs[3] = freqs[2] + 1e-9
        freqs[4] = 0.0
        cols = rng.uniform(-40, 40, 17)
        cols[0] = -freqs[5]
        amps = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
        for c in (None, cols):
            x = np.add.outer(freqs, -freqs if c is None else c)
            want = amps @ exp_integral(x, t0, t1)
            got = _integrate(amps, freqs, t0, t1, c)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_huge_horizon_stays_finite(self):
        # no power of T: at T = 1e160 the zero frequency reads 2h = T, in
        # the norm and in the bilinear integral
        sig = ExponentialSignal(((1.0, 0.0, 0),))
        with np.errstate(all="raise"):
            assert sig.l2_norm_sq(0, 1e160) == 1e160
            assert sig.bilinear_integral(sig, 0.0, 1e160) == 1e160

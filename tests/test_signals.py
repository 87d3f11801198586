import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ggkdv import signals
from ggkdv.signals import (
    ExponentialSignal,
    _centred_matrix,
    _integrate,
    _phase,
    _signals,
    exp_kernel,
    stack_terms,
    total_l2_norm_sq,
)
from ggkdv.spectral import PRESETS, critical_time, spectrum_table

T0 = critical_time(PRESETS["resonant"])


def quad_integral(func, t0, t1):
    re, _ = quad(lambda t: func(t).real, t0, t1, limit=200)
    im, _ = quad(lambda t: func(t).imag, t0, t1, limit=200)
    return re + 1j * im


class TestExpPolyIntegral:
    """``exp_kernel`` with one zero column: ``integral t^m e^{i z t} dt``
    at each row's z and m."""

    def test_zero_frequency_monomials(self):
        got = exp_kernel([0.0, 0.0], [0.0], 0.0, 2.0, [0, 1])[:, 0]
        assert got == pytest.approx([2.0, 2.0])
        got = exp_kernel([0.0], [0.0], 1.0, 2.0, 2)[0, 0]
        assert got == pytest.approx(7.0 / 3.0)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_against_quadrature(self, m):
        rng = np.random.default_rng(m)
        for _ in range(8):
            z = rng.uniform(-20, 20)
            t0, t1 = sorted(rng.uniform(-3, 3, size=2))
            want = quad_integral(lambda t: t**m * np.exp(1j * z * t), t0, t1)
            got = exp_kernel([z], [0.0], t0, t1, m)[0, 0]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("z", [1e-12, 1e-9, 1e-6, 1e-4, 0.3])
    def test_near_resonant_series_regime(self, z):
        # tiny frequencies hit the power-series branch; compare to the
        # limit expansion integral t e^{izt} ~ t + iz t^2 + ...
        got = exp_kernel([z], [0.0], 0.0, 1.0)[0, 0]
        want = quad_integral(lambda t: np.exp(1j * z * t), 0.0, 1.0)
        assert abs(got - want) <= 1e-13

    def test_complex_frequency(self):
        # z with positive imaginary part decays: used by weighted Gramians
        z = 3.0 + 2.0j
        got = exp_kernel([z], [0.0], 0.0, 2.0, 1)[0, 0]
        want = quad_integral(lambda t: t * np.exp(1j * z * t), 0.0, 2.0)
        assert abs(got - want) <= 1e-10

    def test_long_horizon_no_overflow(self):
        # the series entry's placeholder must not overflow e^{w t1}
        with np.errstate(all="raise"):
            got = exp_kernel([0.0, 1.0], [0.0], 0.0, 1e20)[:, 0]
        assert got[0] == 1e20
        assert abs(got[1]) <= 2.0

    def test_directed_reversal(self):
        z = 2.7
        fwd = exp_kernel([z], [0.0], 0.0, 1.5)[0, 0]
        bwd = exp_kernel([z], [0.0], 1.5, 0.0)[0, 0]
        assert fwd == pytest.approx(-bwd)


class TestExpIntegralMatrix:
    """``exp_kernel`` with one zero column over many rows at once."""

    def test_matches_scalar(self):
        rng = np.random.default_rng(1)
        delta = rng.uniform(-30, 30, size=(4, 5))
        delta[0, 0] = 0.0
        delta[1, 2] = 1e-10
        out = exp_kernel(delta.ravel(), [0.0], 0.0, 2.0).reshape(4, 5)
        for i in range(4):
            for j in range(5):
                want = exp_kernel([delta[i, j]], [0.0], 0.0, 2.0)[0, 0]
                assert abs(out[i, j] - want) <= 1e-12

    def test_zero_gives_length(self):
        out = exp_kernel(np.zeros(4), [0.0], 1.0, 4.0)
        assert np.allclose(out, 3.0)


class TestExponentialSignal:
    def test_from_terms_merges_and_drops(self):
        sig = ExponentialSignal.from_terms(
            [(1.0, 2.0, 0), (2.0, 2.0, 0), (5.0, 3.0, 0), (-5.0, 3.0, 0)]
        )
        assert sig.terms == ((3.0 + 0.0j, 2.0, 0),)

    def test_zero_signal_falsy(self):
        assert not ExponentialSignal()
        assert ExponentialSignal(((1.0, 0.0, 0),))

    def test_add_and_scale(self):
        # the sum of two signals: their terms, the shared key merged
        a = ExponentialSignal(((1.0, 1.0, 0),))
        b = ExponentialSignal(((2.0, 1.0, 0), (1.0, 4.0, 1)))
        s = ExponentialSignal.from_terms(a.terms + b.terms)
        assert s.terms == ((3.0 + 0.0j, 1.0, 0), (1.0 + 0.0j, 4.0, 1))
        t = np.linspace(0, 1, 7)
        assert np.allclose(s.evaluate(t), a.evaluate(t) + b.evaluate(t))

    def test_evaluate_against_term_loop(self):
        # one np.exp over all terms, against the sum of the terms one by
        # one; the order of the sum differs, so allow a few ulps of the
        # largest term
        rng = np.random.default_rng(7)
        terms = [(complex(*rng.standard_normal(2)), rng.uniform(-40, 40),
                  int(rng.integers(0, 2))) for _ in range(30)]
        terms.append(terms[0])  # a repeated key, as a raw tuple may hold
        sig = ExponentialSignal(tuple(terms))
        t = np.linspace(-3.0, 3.0, 41)
        want = sum(amp * t**deg * np.exp(1j * f * t) for amp, f, deg in terms)
        bound = 1e-14 * sum(abs(amp) * 3.0**deg for amp, _, deg in terms)
        assert np.max(np.abs(sig.evaluate(t) - want)) <= bound
        got = sig.evaluate(0.7)
        assert isinstance(got, complex)
        assert abs(got - complex(sum(amp * 0.7**deg * np.exp(0.7j * f)
                                     for amp, f, deg in terms))) <= bound
        assert ExponentialSignal().evaluate(0.7) == 0
        assert ExponentialSignal().evaluate(t).shape == t.shape

    def test_total_l2_norm_sq_against_quadrature(self):
        rng = np.random.default_rng(2)
        terms1 = [(complex(*rng.standard_normal(2)), rng.uniform(-10, 10),
                   int(rng.integers(0, 2))) for _ in range(4)]
        terms2 = [(complex(*rng.standard_normal(2)), rng.uniform(-10, 10),
                   int(rng.integers(0, 2))) for _ in range(3)]
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
        want = quad_integral(lambda t: s1.evaluate(t) * s2.evaluate(t), 0.0, 2.0)
        assert abs(s1.bilinear_integral(s2, 0.0, 2.0) - want) <= 1e-9
        # every degree pair, off the origin: the degrees of both signals
        # enter the kernel
        for d1, d2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            s1 = ExponentialSignal.from_terms([(a, f, d1) for a, f, _ in terms1])
            s2 = ExponentialSignal.from_terms([(a, f, d2) for a, f, _ in terms2])
            want = quad_integral(lambda t: s1.evaluate(t) * s2.evaluate(t),
                                 0.3, 2.0)
            assert abs(s1.bilinear_integral(s2, 0.3, 2.0) - want) <= 1e-9

    def test_norm_nonnegative_and_zero_only_for_zero(self):
        sig = ExponentialSignal(((1.0, 5.0, 0), (-1.0, 5.0 + 1e-3, 0)))
        n = sig.l2_norm_sq(0.0, 1.0)
        assert 0 < n < 1e-3
        assert ExponentialSignal().l2_norm_sq(0.0, 1.0) == 0.0


class TestMpmathOracle:
    """The array kernel against 40-digit mpmath quadrature, on both sides
    of the series switch at |i z| * t_scale = 0.5."""

    SCALES = (0.0, 1e-12, 0.49, 0.51, 50.0)     # |i z| * t_scale
    DIRECTIONS = (1.0, np.exp(0.7j))             # real and complex z
    INTERVALS = ((0.0, 1.0), (0.3, 2.0), (-1.5, 0.7))

    @pytest.mark.parametrize("t0, t1", INTERVALS)
    def test_relative_error(self, t0, t1):
        mp = pytest.importorskip("mpmath")
        t_scale = max(abs(t0), abs(t1), 1.0)
        z = np.array([[s * d / t_scale for s in self.SCALES]
                      for d in self.DIRECTIONS])
        m = np.arange(3)
        want = np.empty(z.shape + (3,), dtype=complex)
        with mp.workdps(40):
            nodes = mp.linspace(mp.mpf(t0), mp.mpf(t1), 9)
            for idx in np.ndindex(z.shape):
                zz = mp.mpc(z[idx])
                for k in m:
                    want[idx + (k,)] = complex(mp.quad(
                        lambda t: t**k * mp.expj(zz * t), nodes))
        zz, mm = np.broadcast_arrays(z[:, :, None], m)
        for a, b, sign in ((t0, t1, 1), (t1, t0, -1)):
            got = exp_kernel(zz.ravel(), [0.0], a, b, mm.ravel())
            rel = np.abs(got.reshape(want.shape) - sign * want) / np.abs(want)
            assert np.max(rel) <= 1e-12
            for idx in np.ndindex(want.shape):
                one = exp_kernel([z[idx[:2]]], [0.0], a, b, idx[2])[0, 0]
                assert abs(one - sign * want[idx]) <= 1e-12 * abs(want[idx])


class TestExpKernel:
    def test_matches_elementwise(self):
        # more rows than one block, mixed degrees, complex shifts
        rng = np.random.default_rng(4)
        zr = rng.uniform(-20, 20, 37) + 0.3j
        zc = rng.uniform(-20, 20, 11)
        zc[3] = -zr[5].real
        mr = rng.integers(0, 2, 37)
        mc = rng.integers(0, 2, 11)
        K = exp_kernel(zr, zc, 0.2, 1.7, mr, mc)
        want = exp_kernel((zr[:, None] + zc).ravel(), [0.0], 0.2, 1.7,
                          (mr[:, None] + mc).ravel()).reshape(K.shape)
        assert np.max(np.abs(K - want)) <= 1e-13 * np.max(np.abs(want))


class TestHermitianKernel:
    """``exp_kernel(z, None, ...)``: K[i, j] = integral t^(m_i + m_j)
    e^{i (z_i - conj(z_j)) t} over a window off the origin, built on and
    above the diagonal a block of rows at a time."""

    T0, T1 = 0.4, 2.1

    @staticmethod
    def family(n):
        # mixed degrees; every seventh frequency 1e-9 from its predecessor,
        # on the series branch, and one repeated with the other degree
        rng = np.random.default_rng(n)
        z = rng.uniform(-40, 40, n)
        z[1::7] = z[0:n - 1:7] + 1e-9
        z[2] = z[0]
        m = rng.integers(0, 2, n)
        m[2] = 1 - m[0]
        return z, m

    def test_matches_general_kernel(self):
        z, m = self.family(300)
        H = exp_kernel(z, None, self.T0, self.T1, m)
        K = exp_kernel(z, -z, self.T0, self.T1, m, m)
        eps = np.finfo(float).eps
        assert np.all(np.abs(H - K) <= eps * np.abs(K))
        assert np.array_equal(H, H.conj().T)

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 1e-9])
    def test_complex_frequencies_pair_with_conjugates(self, alpha):
        # K[i, j] = I(z_i - conj(z_j)): the weighted Gramian's kernel at
        # z = i w - omega; at alpha = 1e-9 the diagonal and the close pairs
        # take the series branch
        z, m = self.family(300)
        z = z + 1j * alpha
        H = exp_kernel(z, None, self.T0, self.T1, m)
        K = exp_kernel(z, -np.conj(z), self.T0, self.T1, m, m)
        assert np.array_equal(H, K)
        assert np.array_equal(H, H.conj().T)

    def test_evaluates_about_half_the_entries(self, monkeypatch):
        count = [0]
        block = signals._integrals

        def counted(out, *args):
            count[0] += out.size
            return block(out, *args)

        monkeypatch.setattr(signals, "_integrals", counted)
        n = 258   # the control operator's size at N = 64
        z, m = self.family(n)
        exp_kernel(z, -z, self.T0, self.T1, m, m)
        assert count[0] == n * n
        count[0] = 0
        exp_kernel(z, None, self.T0, self.T1, m)
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
        rng = np.random.default_rng(28)
        omega = spectrum_table(PRESETS["resonant"], 64).omega.ravel()
        T = 1.2 * T0
        freqs = np.unique(-omega)  # a control's frequencies
        for zr, zc, K in ((omega, -omega, exp_kernel(omega, None, 0.0, T)),
                          (freqs, -omega, exp_kernel(freqs, -omega, 0.0, T))):
            assert np.max(self.sampled_errors(zr, zc, T, K, rng)) <= 1e-13

    @pytest.mark.parametrize("rate", [0.01, 0.5])
    def test_weighted_gramian_kernel(self, rate):
        rng = np.random.default_rng(29)
        omega = spectrum_table(PRESETS["resonant"], 32).omega.ravel()
        z, Th = 1j * rate - omega, 1.5 * T0
        K = exp_kernel(z, None, 0.0, Th)
        errors = self.sampled_errors(z, -np.conj(z), Th, K, rng)
        assert np.max(errors) <= 1e-13


class TestKernelSymmetries:
    """Bit for bit: the Hermitian kernel equals its conjugate transpose
    and, over the odd spectra, its conjugate under the swap P: k <-> -k.
    Fused products break the second by an ulp."""

    @pytest.mark.parametrize("N", [6, 16, 64])
    @pytest.mark.parametrize("preset", ["generic", "resonant"])
    def test_hermitian_and_swap(self, preset, N):
        omega = spectrum_table(PRESETS[preset], N).omega
        assert np.array_equal(omega[:, ::-1], -omega)
        swap = np.arange(omega.size).reshape(omega.shape)[:, ::-1].ravel()
        omega = omega.ravel()
        T = 1.0 if preset == "generic" else 1.2 * T0
        for K in (exp_kernel(omega, None, 0.0, T),
                  exp_kernel(1j * 0.5 - omega, None, 0.0, 2.0)):
            assert np.array_equal(K, K.conj().T)
            assert np.array_equal(K[np.ix_(swap, swap)], K.conj())


def dict_merge(terms):
    """The dict merge that signals were built by before the array merge:
    amplitudes summed per (freq, degree) key in the order given, from 0.0,
    zeros dropped, keys sorted."""
    merged = {}
    for amp, freq, degree in terms:
        key = (float(freq), int(degree))
        merged[key] = merged.get(key, 0.0) + complex(amp)
    return tuple((amp, freq, degree)
                 for (freq, degree), amp in sorted(merged.items())
                 if amp != 0.0)


def dict_union(signals_):
    """``stack_terms`` as it was built before, over the signals' terms."""
    keys = sorted({(f, d) for sig in signals_ for _, f, d in sig.terms})
    index = {key: i for i, key in enumerate(keys)}
    amps = np.zeros((len(signals_), len(keys)), dtype=complex)
    for row, sig in enumerate(signals_):
        for amp, f, d in sig.terms:
            amps[row, index[(f, d)]] += amp
    return amps, np.array([f for f, _ in keys]), np.array([d for _, d in keys])


def bits(terms):
    """Terms as exact strings: -0.0 and 0.0 differ."""
    return [(complex(a).real.hex(), complex(a).imag.hex(), float(f).hex(),
             int(d)) for a, f, d in terms]


# few distinct values, so that keys repeat and sums cancel to (-)0.0
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])
TERMS = st.lists(st.tuples(st.builds(complex, PARTS, PARTS),
                           st.sampled_from([0.0, -0.0, 1.5, -2.0, 7.0]),
                           st.integers(0, 1)), max_size=12)


class TestArrayMerge:
    """Signals built from arrays by one vectorized merge carry the terms of
    the dict merge bit for bit, and keep their stacked arrays."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(TERMS)
    def test_from_terms_matches_dict_merge(self, terms):
        sig = ExponentialSignal.from_terms(terms)
        assert bits(sig.terms) == bits(dict_merge(terms))
        amps, freqs, degrees = sig._stacked
        assert bits(zip(amps[0], freqs, degrees)) == bits(sig.terms)

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
        degrees = np.zeros(len(freqs), dtype=int)
        sigs = list(_signals(amps, freqs, degrees))
        for sig, row in zip(sigs, amps):
            assert bits(sig.terms) == bits(dict_merge(zip(row, freqs,
                                                          degrees)))
        raw = [ExponentialSignal(sig.terms) for sig in sigs]
        want = dict_union(sigs)
        for got in (stack_terms(sigs), stack_terms(raw),
                    stack_terms(sigs + [ExponentialSignal()])):
            assert np.array_equal(got[0][:2], want[0])
            assert bits(zip(got[0][0], got[1], got[2])) \
                == bits(zip(want[0][0], want[1], want[2]))
            assert bits(zip(got[0][1], got[1], got[2])) \
                == bits(zip(want[0][1], want[1], want[2]))

    def test_shared_keys_reuse_the_arrays(self):
        amps = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=complex)
        freqs = np.array([2.0, -1.0, 2.0])
        f, g = _signals(amps, freqs, np.zeros(3, dtype=int))
        assert f.terms == ((2.0 + 0j, -1.0, 0), (4.0 + 0j, 2.0, 0))
        stacked, union, _ = stack_terms([f, g])
        assert union is f._stacked[1]
        assert np.array_equal(stacked, [[2.0, 4.0], [5.0, 10.0]])
        assert stack_terms([])[0].shape == (0, 0)


class TestCentredKernel:
    """The real kernel K_h(x) = 2 sin(x h) / x of the degree-0 integrals,
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
    def test_integrate_matches_exp_kernel(self, t0, t1):
        # the degree-0 path against the complex kernel it replaces, in the
        # Hermitian mode (costs) and against other columns (Duhamel steps)
        rng = np.random.default_rng(30)
        freqs = rng.uniform(-40, 40, 50)
        freqs[3] = freqs[2] + 1e-9
        freqs[4] = 0.0
        cols = rng.uniform(-40, 40, 17)
        cols[0] = -freqs[5]
        amps = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
        degrees = np.zeros(50, dtype=int)
        for c in (None, cols):
            want = amps @ exp_kernel(freqs, c, t0, t1)
            got = _integrate(amps, freqs, degrees, t0, t1, c)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_huge_horizon_stays_finite(self):
        # the series of exp_kernel squares T: at T = 1e160 its zero
        # frequency read nan; the centred kernel reads 2h = T, in the norm
        # and in the bilinear integral
        sig = ExponentialSignal(((1.0, 0.0, 0),))
        with np.errstate(all="raise"):
            assert sig.l2_norm_sq(0, 1e160) == 1e160
            assert sig.bilinear_integral(sig, 0.0, 1e160) == 1e160

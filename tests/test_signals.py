import numpy as np
import pytest
from scipy.integrate import quad

from ggkdv.signals import (
    ExponentialSignal,
    exp_kernel,
    exp_poly_integral,
)


def quad_integral(func, t0, t1):
    re, _ = quad(lambda t: func(t).real, t0, t1, limit=200)
    im, _ = quad(lambda t: func(t).imag, t0, t1, limit=200)
    return re + 1j * im


class TestExpPolyIntegral:
    def test_zero_frequency_monomials(self):
        assert exp_poly_integral(0.0, 0, 0.0, 2.0) == pytest.approx(2.0)
        assert exp_poly_integral(0.0, 1, 0.0, 2.0) == pytest.approx(2.0)
        assert exp_poly_integral(0.0, 2, 1.0, 2.0) == pytest.approx(7.0 / 3.0)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_against_quadrature(self, m):
        rng = np.random.default_rng(m)
        for _ in range(8):
            z = rng.uniform(-20, 20)
            t0, t1 = sorted(rng.uniform(-3, 3, size=2))
            want = quad_integral(lambda t: t**m * np.exp(1j * z * t), t0, t1)
            got = exp_poly_integral(z, m, t0, t1)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("z", [1e-12, 1e-9, 1e-6, 1e-4, 0.3])
    def test_near_resonant_series_regime(self, z):
        # tiny frequencies hit the power-series branch; compare to the
        # limit expansion integral t e^{izt} ~ t + iz t^2 + ...
        got = exp_poly_integral(z, 0, 0.0, 1.0)
        want = quad_integral(lambda t: np.exp(1j * z * t), 0.0, 1.0)
        assert abs(got - want) <= 1e-13

    def test_complex_frequency(self):
        # z with positive imaginary part decays: used by weighted Gramians
        z = 3.0 + 2.0j
        got = exp_poly_integral(z, 1, 0.0, 2.0)
        want = quad_integral(lambda t: t * np.exp(1j * z * t), 0.0, 2.0)
        assert abs(got - want) <= 1e-10

    def test_long_horizon_no_overflow(self):
        # the series entry's placeholder must not overflow e^{w t1}
        with np.errstate(all="raise"):
            got = exp_poly_integral(np.array([0.0, 1.0]), 0, 0.0, 1e20)
        assert got[0] == 1e20
        assert abs(got[1]) <= 2.0

    def test_directed_reversal(self):
        z = 2.7
        fwd = exp_poly_integral(z, 0, 0.0, 1.5)
        bwd = exp_poly_integral(z, 0, 1.5, 0.0)
        assert fwd == pytest.approx(-bwd)


class TestExpIntegralMatrix:
    """The array form of ``exp_poly_integral`` over frequency matrices."""

    def test_matches_scalar(self):
        rng = np.random.default_rng(1)
        delta = rng.uniform(-30, 30, size=(4, 5))
        delta[0, 0] = 0.0
        delta[1, 2] = 1e-10
        out = exp_poly_integral(delta, 0, 0.0, 2.0)
        for i in range(4):
            for j in range(5):
                want = exp_poly_integral(delta[i, j], 0, 0.0, 2.0)
                assert abs(out[i, j] - want) <= 1e-12

    def test_zero_gives_length(self):
        out = exp_poly_integral(np.zeros((2, 2)), 0, 1.0, 4.0)
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
        a = ExponentialSignal(((1.0, 1.0, 0),))
        b = ExponentialSignal(((2.0, 1.0, 0), (1.0, 4.0, 1)))
        s = (a + b).scaled(2.0)
        t = np.linspace(0, 1, 7)
        assert np.allclose(s.evaluate(t), 2 * (a.evaluate(t) + b.evaluate(t)))

    def test_conjugate_pointwise(self):
        sig = ExponentialSignal(((1.0 + 2.0j, 3.0, 0), (0.5j, -1.0, 1)))
        t = np.linspace(-1, 1, 9)
        assert np.allclose(sig.conjugate().evaluate(t), np.conj(sig.evaluate(t)))

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

    def test_l2_inner_against_quadrature(self):
        rng = np.random.default_rng(2)
        terms1 = [(complex(*rng.standard_normal(2)), rng.uniform(-10, 10),
                   int(rng.integers(0, 2))) for _ in range(4)]
        terms2 = [(complex(*rng.standard_normal(2)), rng.uniform(-10, 10),
                   int(rng.integers(0, 2))) for _ in range(3)]
        s1 = ExponentialSignal.from_terms(terms1)
        s2 = ExponentialSignal.from_terms(terms2)
        want = quad_integral(lambda t: s1.evaluate(t) * np.conj(s2.evaluate(t)),
                             0.0, 1.7)
        assert abs(s1.l2_inner(s2, 0.0, 1.7) - want) <= 1e-9

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
        for a, b, sign in ((t0, t1, 1), (t1, t0, -1)):
            got = exp_poly_integral(z[:, :, None], m, a, b)
            assert got.shape == want.shape
            rel = np.abs(got - sign * want) / np.abs(want)
            assert np.max(rel) <= 1e-12
            for idx in np.ndindex(want.shape):
                scalar = exp_poly_integral(complex(z[idx[:2]]), int(idx[2]),
                                           a, b)
                assert isinstance(scalar, complex)
                assert abs(scalar - sign * want[idx]) <= 1e-12 * abs(want[idx])


class TestExpKernel:
    def test_matches_elementwise_and_contracts(self):
        # more rows than one block, mixed degrees, complex shifts
        rng = np.random.default_rng(4)
        zr = rng.uniform(-20, 20, 37) + 0.3j
        zc = rng.uniform(-20, 20, 11)
        zc[3] = -zr[5].real
        mr = rng.integers(0, 2, 37)
        mc = rng.integers(0, 2, 11)
        K = exp_kernel(zr, zc, 0.2, 1.7, mr, mc)
        want = exp_poly_integral(zr[:, None] + zc, mr[:, None] + mc, 0.2, 1.7)
        assert np.max(np.abs(K - want)) <= 1e-13 * np.max(np.abs(want))
        left = rng.standard_normal((2, 37)) + 1j * rng.standard_normal((2, 37))
        got = exp_kernel(zr, zc, 0.2, 1.7, mr, mc, left=left)
        assert np.max(np.abs(got - left @ want)) <= 1e-12 * np.max(np.abs(got))

import math

import numpy as np
import pytest

from ggkdv.errors import GGKdVError
from ggkdv.gram import ObservationWindow, observability_constants
from ggkdv.spectral import (
    PRESETS,
    Branch,
    PhysicalParams,
    critical_time,
    gap_report,
    resonance_check,
    spectrum_table,
    symbol_matrix,
)

ONES = PhysicalParams(1.0, 1.0, 1.0, 1.0)
GENERIC = PRESETS["generic"]
RESONANT = PRESETS["resonant"]


def char_poly_residual(params, k, omega):
    # residual relative to the largest term of the quadratic: the terms
    # grow like k^6 and cancel, so max(1, omega^2) would be unattainable
    # in double precision on the slow branch
    a, c, d, r = params.a, params.c, params.d, params.r
    terms = [c * omega**2, (r * k - (c + 1) * k**3) * omega,
             (1 - a * d) * k**6, -r * k**4]
    return abs(sum(terms)) / max(1.0, *(abs(t) for t in terms))


class TestPhysicalParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PhysicalParams(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 0.0, 1.0)

    def test_weight_and_resonant_flag(self):
        p = PhysicalParams(2.0, 3.0, 4.0, 1.0)
        assert p.weight == 2.0 * 3.0 / 4.0
        assert not p.resonant
        assert RESONANT.resonant
        assert not GENERIC.resonant


class TestSymbolMatrix:
    def test_k0_vanishes(self):
        assert np.array_equal(symbol_matrix(ONES, 0), np.zeros((2, 2)))

    def test_ones_k1(self):
        assert np.allclose(symbol_matrix(ONES, 1), [[1, 1], [1, 0]])

    def test_generic_k2(self):
        assert np.allclose(symbol_matrix(GENERIC, 2), [[8, 16], [8, 6]])

    def test_char_poly_matches_quadratic(self):
        # det(S_k - w I) * c reproduces the closed-form quadratic in w
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = PhysicalParams(*np.exp(rng.uniform(-1, 1, size=4)))
            k = int(rng.integers(-8, 9))
            S = symbol_matrix(p, k)
            for w in rng.standard_normal(3) * max(1, abs(k) ** 3):
                det = np.linalg.det(S - w * np.eye(2)) * p.c
                quad = (p.c * w**2 + (p.r * k - (p.c + 1) * k**3) * w
                        + (1 - p.a * p.d) * k**6 - p.r * k**4)
                assert abs(det - quad) <= 1e-9 * max(1.0, abs(quad))


class TestEigenfrequencies:
    def test_k0_both_zero(self):
        assert tuple(spectrum_table(ONES, 0).omega[:, 0]) == (0.0, 0.0)

    def test_ones_k1_golden_ratio(self):
        t = spectrum_table(ONES, 1)
        wp, wm = t.omega[:, 1 + t.N]
        assert wp == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)
        assert wm == pytest.approx((1 - math.sqrt(5)) / 2, abs=1e-14)
        # oracle: numeric eigensolve of the symbol matrix
        ev = np.sort(np.linalg.eigvals(symbol_matrix(ONES, 1)).real)
        assert np.allclose(ev, [wm, wp], atol=1e-12)

    def test_negative_k_branchwise_negation(self):
        # branch label follows the formula sign, so omega(-k) = -omega(k)
        # per branch (not per value order)
        for p in (ONES, GENERIC):
            t = spectrum_table(p, 7)
            for k in (1, 2, 7):
                wp, wm = t.omega[:, k + t.N]
                wpn, wmn = t.omega[:, -k + t.N]
                assert wpn == pytest.approx(-wp, rel=1e-14)
                assert wmn == pytest.approx(-wm, rel=1e-14)

    def test_plus_above_minus_for_positive_k(self):
        for p in (ONES, GENERIC):
            t = spectrum_table(p, 29)
            for k in range(1, 30):
                wp, wm = t.omega[:, k + t.N]
                assert wp >= wm

    def test_char_poly_residual_presets(self):
        for p in (GENERIC, RESONANT):
            t = spectrum_table(p, 64)
            for k in range(-64, 65):
                for w in t.omega[:, k + t.N]:
                    assert char_poly_residual(p, k, w) <= 1e-9

    def test_random_params_against_numeric_eigensolve(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = PhysicalParams(*np.exp(rng.uniform(-1.5, 1.5, size=4)))
            k = int(rng.integers(-64, 65))
            t = spectrum_table(p, abs(k))
            wp, wm = t.omega[:, k + t.N]
            ev = np.sort(np.linalg.eigvals(symbol_matrix(p, k)).real)
            scale = max(1.0, abs(wp), abs(wm))
            assert abs(ev[1] - max(wp, wm)) <= 1e-10 * scale
            assert abs(ev[0] - min(wp, wm)) <= 1e-10 * scale


class TestEigenvectors:
    def test_k0_ones(self):
        zp, zm = spectrum_table(ONES, 0).z[:, 0]
        assert np.allclose(zp, [2, 2])
        assert np.allclose(zm, [2, -2])

    def test_eigen_relation(self):
        # S_k Z = omega Z, relative residual <= 1e-10
        for p in (GENERIC, RESONANT):
            t = spectrum_table(p, 64)
            for k in range(-64, 65):
                S = symbol_matrix(p, k)
                for omega, z in zip(t.omega[:, k + t.N], t.z[:, k + t.N]):
                    res = S @ z - omega * z
                    scale = max(1.0, abs(omega)) * np.linalg.norm(z)
                    assert np.linalg.norm(res) <= 1e-10 * scale

    def test_weighted_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = PhysicalParams(*np.exp(rng.uniform(-1, 1, size=4)))
            k = int(rng.integers(-50, 51))
            t = spectrum_table(p, abs(k))
            zp, zm = t.z[:, k + t.N]
            ip = zp[0] * np.conj(zm[0]) + p.weight * zp[1] * np.conj(zm[1])
            assert abs(ip) <= 1e-12 * np.linalg.norm(zp) * np.linalg.norm(zm)

    def test_even_in_k(self):
        for p in (GENERIC, RESONANT):
            t = spectrum_table(p, 11)
            for k in (1, 3, 11):
                zp, zm = t.z[:, k + t.N]
                zpn, zmn = t.z[:, -k + t.N]
                assert np.allclose(zp, zpn, atol=1e-14)
                assert np.allclose(zm, zmn, atol=1e-14)

    def test_large_k_limit(self):
        a, c, d = ONES.a, ONES.c, ONES.d
        root = math.sqrt(4 * a * c * d + (c - 1) ** 2)
        t = spectrum_table(ONES, 10**4)
        zp, zm = t.z[:, 10**4 + t.N]
        assert np.allclose(zp, [2 * a * c, 1 - c + root], atol=1e-6)
        assert np.allclose(zm, [2 * a * c, 1 - c - root], atol=1e-6)

    def test_norms_uniformly_bounded(self):
        table = spectrum_table(GENERIC, 10**3)
        norms = np.sqrt(table.norm2)
        assert 0.1 < norms.min() <= norms.max() < 100.0
        # spot-check very large k directly
        t = spectrum_table(GENERIC, 10**4)
        for k in (10**4, -10**4):
            for z in t.z[:, k + t.N]:
                ip = z[0] * np.conj(z[0]) + GENERIC.weight * z[1] * np.conj(z[1])
                n = math.sqrt(abs(ip))
                assert 0.1 < n < 100.0

    def test_adjoint_shares_frequencies_and_v_component(self):
        # the table holds one frequency array for both bases: the adjoint
        # vectors are eigenvectors of the transposed symbol at those omegas
        t = spectrum_table(GENERIC, 9)
        for k in (-5, 0, 1, 9):
            S = symbol_matrix(GENERIC, k)
            for omega, z, zt in zip(t.omega[:, k + t.N], t.z[:, k + t.N],
                                    t.zt[:, k + t.N]):
                res = np.linalg.norm(S.T @ zt - omega * zt)
                assert res <= 1e-10 * max(1.0, abs(omega)) * np.linalg.norm(zt)
                assert zt[0] == pytest.approx(2 * GENERIC.d)
                assert zt[1] == pytest.approx(z[1])

    def test_biorthogonality_forward_adjoint(self):
        # plain dot product of opposite-branch forward/adjoint vectors is 0
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = PhysicalParams(*np.exp(rng.uniform(-1, 1, size=4)))
            k = int(rng.integers(-20, 21))
            t = spectrum_table(p, abs(k))
            fp, fm = t.z[:, k + t.N]
            ap, am = t.zt[:, k + t.N]
            scale = np.linalg.norm(fp) * np.linalg.norm(am)
            assert abs(np.dot(fp, am)) <= 1e-10 * scale
            assert abs(np.dot(fm, ap)) <= 1e-10 * scale


class TestGapReport:
    def test_a_const_ones(self):
        assert gap_report(RESONANT, 10).A_const == pytest.approx(2.0)

    def test_a_const_generic(self):
        assert gap_report(GENERIC, 10).A_const == pytest.approx(1 + math.sqrt(2))

    def test_plus_gap_growth_generic(self):
        rep = gap_report(GENERIC, 102)
        t = spectrum_table(GENERIC, 101)
        wp0, wp1 = t.omega[0, 100 + t.N], t.omega[0, 101 + t.N]
        ratio = (wp1 - wp0) / (3 * rep.A_const * 100**2)
        assert abs(ratio - 1) <= 0.02

    def test_minus_gap_limit_resonant(self):
        t = spectrum_table(RESONANT, 201)
        w0, w1 = t.omega[1, 200 + t.N], t.omega[1, 201 + t.N]
        assert abs((w1 - w0) - (-0.5)) <= 0.05
        assert gap_report(RESONANT, 10).B_or_slope == pytest.approx(-0.5)

    def test_minus_gaps_grow_nonresonant(self):
        t = spectrum_table(GENERIC, 201)
        gaps = [t.omega[1, k + 1 + t.N] - t.omega[1, k + t.N]
                for k in (10, 50, 100, 200)]
        mags = np.abs(gaps)
        assert np.all(np.diff(mags) > 0)
        assert mags[-1] > 100 * mags[0]

    def test_density_estimate_resonant(self):
        rep = gap_report(RESONANT, 400)
        assert abs(rep.D_plus_estimate - 2.0) <= 0.2
        assert rep.T0 == pytest.approx(4 * math.pi)

    def test_t0_zero_nonresonant(self):
        assert gap_report(GENERIC, 10).T0 == 0.0

    def test_gamma_inf_positive(self):
        assert gap_report(RESONANT, 100).gamma_inf_estimate > 0

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            gap_report(GENERIC, 1)


class TestResonanceCheck:
    def test_ones_clean(self):
        rep = resonance_check(RESONANT, 12, 1e-9)
        assert rep.violations == ()

    def test_k0_pair_always_excluded(self):
        # with a huge tolerance many pairs collide but never the k=0 pair
        rep = resonance_check(GENERIC, 4, 1e3)
        assert rep.violations
        k0 = tuple(sorted(((0, Branch.PLUS), (0, Branch.MINUS))))
        assert k0 not in rep.violations

    def test_random_r_sweep_clean(self):
        rng = np.random.default_rng(11)
        for r in rng.uniform(0.1, 10.0, size=100):
            p = PhysicalParams(1.0, 1.0, 1.0, float(r))
            assert resonance_check(p, 12, 1e-9).violations == ()

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            resonance_check(GENERIC, 4, 0.0)


class TestCriticalTime:
    def test_nonresonant_zero(self):
        assert critical_time(GENERIC) == 0.0

    def test_ones(self):
        assert critical_time(RESONANT) == pytest.approx(4 * math.pi)

    def test_scaled_quadruple(self):
        # 2 pi (c+1)/r: the minus-branch gap of this quadruple tends to
        # r/(c+1) = pi/3 (its frequencies at k = 400 give 6.00001)
        p = PhysicalParams(0.5, 2.0, 2.0, math.pi)
        assert critical_time(p) == pytest.approx(6.0)


# resonant quadruples (a*d = 1) with c != 1, where c enters the sharp time
SHARP_CASES = [PhysicalParams(0.5, 2.0, 2.0, 3.0),
               PhysicalParams(1.0, 0.5, 1.0, 2.0),
               PhysicalParams(1.0, 3.0, 1.0, 1.0)]


class TestSharpTime:
    @pytest.mark.parametrize("p", SHARP_CASES)
    def test_critical_time_is_ingham_time_of_the_spectrum(self, p):
        t = spectrum_table(p, 401)
        gap = t.omega[1, 401 + t.N] - t.omega[1, 400 + t.N]
        assert gap_report(p, 10).B_or_slope == pytest.approx(gap, rel=1e-5)
        assert critical_time(p) == pytest.approx(2 * math.pi / abs(gap), rel=1e-5)

    @pytest.mark.parametrize("p", SHARP_CASES)
    def test_observability_threshold(self, p):
        # below T0 alpha collapses as N grows; above T0 it stays put
        T0 = critical_time(p)

        def alpha(N, T):
            return observability_constants(p, N, 0.0,
                                           ObservationWindow(0.0, T)).alpha

        assert alpha(64, 0.9 * T0) <= 1e-8 * alpha(8, 0.9 * T0)
        assert alpha(64, 1.1 * T0) >= 0.5 * alpha(8, 1.1 * T0)

    @pytest.mark.parametrize("p", [PRESETS["generic"],
                                   PhysicalParams(0.37, 2.2, 1.3, 0.8)])
    def test_minus_branch_cubic_slope(self, p):
        k = 4000
        t = spectrum_table(p, k)
        slope = t.omega[1, k + t.N] / k**3
        assert gap_report(p, 10).B_or_slope == pytest.approx(slope, rel=1e-6)


class TestSpectrumTable:
    def test_caching_returns_same_object(self):
        assert spectrum_table(GENERIC, 6) is spectrum_table(GENERIC, 6)

    @pytest.mark.parametrize("params, N", [
        # ac/d underflows to 0 or overflows to inf
        (PhysicalParams(1e-300, 1e-300, 1.0, 1.0), 4),
        (PhysicalParams(1e-200, 1.0, 1e200, 1.0), 4),
        (PhysicalParams(1.0, 1.0, 1e-310, 1.0), 4),
        # ac/d is subnormal, its reciprocal overflows
        (PhysicalParams(1e-155, 1e-155, 1.0, 1.0), 4),
        # the norms overflow, already at k = 0
        (PhysicalParams(1e300, 1.0, 1.0, 1.0), 0),
        # 4acd overflows in the frequencies
        (PhysicalParams(1e300, 1.0, 1e9, 1.0), 2),
    ])
    def test_unrepresentable_table_raises(self, params, N):
        # under warnings as errors, a table that is not finite in double
        # precision raises the package's error, naming its inputs
        named = rf"a=.*, c=.*, d=.*, r=.*\) at N={N}\b"
        with pytest.raises(GGKdVError, match=named):
            spectrum_table(params, N)

"""Test-side references for the time integrals of exponential sums, built
apart from the kernels of ``ggkdv.signals``: scipy quadrature of any
complex integrand, and the closed form of ``integral e^{i x t} dt`` in long
double."""

import numpy as np
from scipy.integrate import quad


def quad_integral(func, t0, t1):
    """``integral_{t0}^{t1} func(t) dt`` of a complex integrand by scipy's
    adaptive quadrature, real and imaginary parts apart."""
    re, _ = quad(lambda t: func(t).real, t0, t1, limit=300)
    im, _ = quad(lambda t: func(t).imag, t0, t1, limit=300)
    return re + 1j * im


def exp_integral(x, t0, t1):
    """``integral_{t0}^{t1} e^{i x t} dt`` at each entry of the array x, real
    or complex: e^{i x c} 2 sin(x h) / x over the centre c and half-length h
    of [t0, t1], and its limit 2h at x = 0, evaluated in long double from
    the double inputs and rounded to complex.  The phases x c and x h round
    there, so an entry is right to about 1e-19 |x| max(|t0|, |t1|)
    relative, besides that last rounding."""
    x = np.asarray(x, dtype=np.clongdouble)
    t0, t1 = np.longdouble(t0), np.longdouble(t1)
    c, h = (t0 + t1) / 2, (t1 - t0) / 2
    zero = x == 0
    safe = np.where(zero, 1, x)
    kernel = np.where(zero, 2 * h, 2 * np.sin(safe * h) / safe)
    return (np.exp(1j * x * c) * kernel).astype(complex)

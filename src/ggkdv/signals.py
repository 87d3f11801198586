"""Finite exponential-polynomial sums in time and their exact integrals.

Traces, controls and Gram entries all live in the class

    s(t) = sum_j A_j * t^{d_j} * e^{i mu_j t},   d_j in {0, 1},

so every time integral in the pipeline is ``integral t^m e^{i z t} dt``
with m = d_j + d_k <= 2 and z a frequency sum or difference, moved off the
real axis by 2 i w under an exponential weight e^{-2 w t}.  One
array-valued kernel, ``exp_poly_integral``, evaluates it in closed form
elementwise over broadcast arrays of (z, m).  ``exp_kernel`` lays it out as
the outer-sum matrix K[i, j] behind inner products, Gram matrices, Duhamel
steps and weighted Gramians, a bounded block of rows at a time, and
contracts each block at once when only a product with K is needed.  Near
resonance |z| -> 0 the closed forms cancel catastrophically; there the
kernel switches to a power series that is exact in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Below this value of |i*z| * t_scale the antiderivative formulas lose
# digits to cancellation and the series expansion is used instead.
_SERIES_THRESHOLD = 0.5
_SERIES_TERMS = 40
# Entries of K that exp_kernel builds at once, in whole rows: bounds its
# temporaries to a few arrays of this size (15 rows at N=64).
_BLOCK_ENTRIES = 4096


def exp_poly_integral(z, m, t0: float, t1: float):
    """Exact ``integral_{t0}^{t1} t^m e^{i z t} dt`` for complex z and
    integer m >= 0, elementwise over the broadcast of ``z`` and ``m``.

    Uses the antiderivative e^{wt} q_m(t) / w with w = i z, q_0 = 1 and
    q_m(t) = t^m - m q_{m-1}(t) / w, switching to a power series in w where
    |w| * t_scale is small (this covers w = 0 exactly).  Scalar inputs
    return a Python complex.
    """
    z, m = np.broadcast_arrays(np.asarray(z, dtype=complex),
                               np.asarray(m, dtype=int))
    w = 1j * z
    t_scale = max(abs(t0), abs(t1), 1.0)
    series = np.abs(w) * t_scale <= _SERIES_THRESHOLD
    if series.all():
        out = _series(w, m, t0, t1)
    elif series.any():
        # w = i keeps the closed form finite where the series takes over,
        # at any horizon: |e^{it}| = 1
        out = _closed_form(np.where(series, 1j, w), m, t0, t1)
        out[series] = _series(w[series], m[series], t0, t1)
    else:
        out = _closed_form(w, m, t0, t1)
    return complex(out) if out.ndim == 0 else out


def _closed_form(w, m, t0, t1):
    q1 = q0 = 1.0
    for j in range(1, int(m.max(initial=0)) + 1):
        step = m >= j
        q1 = np.where(step, t1**j - j * q1 / w, q1)
        q0 = np.where(step, t0**j - j * q0 / w, q0)
    e0 = 1.0 if t0 == 0 else np.exp(w * t0)
    return (np.exp(w * t1) * q1 - e0 * q0) / w


def _series(w, m, t0, t1):
    # integral t^m e^{wt} = sum_j w^j/j! (t1^{m+j+1}-t0^{m+j+1})/(m+j+1),
    # cut where x^(J-1)/J! <= 1e-18 with x = max|w| * t_scale <= 0.5: the
    # first omitted term relative to the leading one (j = 0, or j = 1 on
    # intervals symmetric about 0)
    x = float(np.max(np.abs(w), initial=0.0)) * max(abs(t0), abs(t1), 1.0)
    terms, rel = 2, x / 2
    while rel > 1e-18 and terms < _SERIES_TERMS:
        terms += 1
        rel *= x / terms
    ratio = np.ones(w.shape + (terms,), dtype=complex)
    ratio[..., 1:] = w[..., None] / np.arange(1, terms)
    p = m[..., None] + np.arange(1, terms + 1)
    return np.sum(np.cumprod(ratio, axis=-1) * ((t1**p - t0**p) / p), axis=-1)


def exp_kernel(z_rows, z_cols, t0: float, t1: float, m_rows=0, m_cols=0,
               left=None) -> np.ndarray:
    """``left @ K``, or K itself when ``left`` is None, for the matrix

        K[i, j] = exp_poly_integral(z_rows[i] + z_cols[j],
                                    m_rows[i] + m_cols[j], t0, t1).

    K is built a block of rows of about _BLOCK_ENTRIES entries at a time,
    so a product never holds K whole.  ``left`` has shape
    (..., len(z_rows)).  The products use einsum, not matmul: they are
    small, and handing them to a multithreaded BLAS left its threads in a
    state that made later small eigen-solves up to twice as slow.
    """
    z_rows = np.asarray(z_rows)
    z_cols = np.asarray(z_cols)
    m_rows = np.asarray(m_rows)
    if left is None:
        out = np.empty((len(z_rows), len(z_cols)), dtype=complex)
    else:
        left = np.asarray(left, dtype=complex)
        out = np.zeros(left.shape[:-1] + (len(z_cols),), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(1, len(z_cols)))
    for start in range(0, len(z_rows), step):
        rows = slice(start, start + step)
        m = m_rows if m_rows.ndim == 0 else m_rows[rows, None]
        block = exp_poly_integral(z_rows[rows, None] + z_cols, m + m_cols,
                                  t0, t1)
        if left is None:
            out[rows] = block
        else:
            out += np.einsum("...i,ij->...j", left[..., rows], block)
    return out


@dataclass(frozen=True)
class ExponentialSignal:
    """Finite sum of terms ``amp * t^degree * e^{i freq t}``."""

    terms: tuple[tuple[complex, float, int], ...] = ()

    @staticmethod
    def from_terms(terms) -> "ExponentialSignal":
        """Build a signal, merging duplicate (freq, degree) keys and
        dropping zero amplitudes."""
        merged: dict[tuple[float, int], complex] = {}
        for amp, freq, degree in terms:
            key = (float(freq), int(degree))
            merged[key] = merged.get(key, 0.0) + complex(amp)
        kept = tuple(
            (amp, freq, degree)
            for (freq, degree), amp in sorted(merged.items())
            if amp != 0.0
        )
        return ExponentialSignal(kept)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "ExponentialSignal") -> "ExponentialSignal":
        return ExponentialSignal.from_terms(self.terms + other.terms)

    def scaled(self, factor: complex) -> "ExponentialSignal":
        return ExponentialSignal(
            tuple((amp * factor, f, d) for amp, f, d in self.terms)
        )

    def conjugate(self) -> "ExponentialSignal":
        return ExponentialSignal.from_terms(
            (np.conj(amp), -f, d) for amp, f, d in self.terms
        )

    @cached_property
    def _stacked(self):
        """The terms as ``stack_terms`` arrays, built once per signal."""
        return stack_terms([self])

    def evaluate(self, t):
        """Evaluate the signal at scalar or array times."""
        amps, freqs, degrees = self._stacked
        t = np.asarray(t, dtype=float)[..., None]
        out = np.sum(amps[0] * t**degrees * np.exp(1j * freqs * t), axis=-1)
        return out if out.shape else complex(out)

    def l2_inner(self, other: "ExponentialSignal", t0: float, t1: float) -> complex:
        """Hermitian inner product ``integral s(t) conj(o(t)) dt`` in closed form."""
        a1, f1, d1 = stack_terms([self])
        a2, f2, d2 = stack_terms([other])
        return complex(exp_kernel(f1, -f2, t0, t1, d1, d2, left=a1[0])
                       @ np.conj(a2[0]))

    def l2_norm_sq(self, t0: float, t1: float) -> float:
        return float(np.real(self.l2_inner(self, t0, t1)))

    def bilinear_integral(self, other: "ExponentialSignal", t0: float, t1: float) -> complex:
        """Unconjugated ``integral s(t) o(t) dt`` in closed form (directed)."""
        a1, f1, d1 = stack_terms([self])
        a2, f2, d2 = stack_terms([other])
        return complex(exp_kernel(f1, f2, t0, t1, d1, d2, left=a1[0]) @ a2[0])


def stack_terms(signals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signals as amplitude rows over the union of their (freq, degree)
    keys: ``(amps[len(signals), n], freqs[n], degrees[n])``.

    Signals that share frequencies, like the two controls of a plan, then
    share one kernel block per key.
    """
    keys = sorted({(f, d) for sig in signals for _, f, d in sig.terms})
    index = {key: i for i, key in enumerate(keys)}
    amps = np.zeros((len(signals), len(keys)), dtype=complex)
    for row, sig in enumerate(signals):
        for amp, f, d in sig.terms:
            amps[row, index[(f, d)]] += amp
    freqs = np.array([f for f, _ in keys], dtype=float)
    degrees = np.array([d for _, d in keys], dtype=int)
    return amps, freqs, degrees

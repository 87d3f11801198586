"""Finite exponential-polynomial sums in time and their exact integrals.

Traces, controls and Gram entries all live in the class

    s(t) = sum_j A_j * t^{d_j} * e^{i mu_j t},   d_j in {0, 1},

so every time integral in the pipeline is ``integral t^m e^{i z t} dt``
with m = d_j + d_k <= 2 and z a frequency sum or difference, moved off the
real axis by 2 i w under an exponential weight e^{-2 w t}.  ``exp_kernel``
lays it out as the outer-sum matrix K[i, j] behind inner products, Grams,
Duhamel steps and weighted Gramians, which each caller multiplies by its
amplitudes; ``exp_poly_integral`` takes it elementwise.  No exponential is
taken per entry: e^{i(z_i + z_j)t} is the product of the factors e^{i z t}
of the two frequencies, whose phases are exact at any |z t| (``_phase``,
shared with ``gram``).  The Hermitian forms (norms, control costs, Grams
and the weighted Gramian) have the kernel K[i, j] = I(z_i - conj(z_j),
m_i + m_j), evaluated only on and above the diagonal.  Near resonance
|z| -> 0 the closed forms cancel; there a power series is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Below this value of |i*z| * t_scale the antiderivative formulas lose
# digits to cancellation and the series expansion is used instead.
_SERIES_THRESHOLD = 0.5
_SERIES_TERMS = 40
# Entries of K that exp_kernel builds at once, in whole rows (29 at N=64):
# its complex temporaries stay under 128 KiB, above which malloc maps (and
# faults in) fresh pages for each.
_BLOCK_ENTRIES = 7680


def exp_poly_integral(z, m, t0: float, t1: float):
    """Exact ``integral_{t0}^{t1} t^m e^{i z t} dt`` for complex z and
    integer m >= 0, elementwise over the broadcast of ``z`` and ``m``
    (``exp_kernel`` with one zero column).  Scalar inputs return a Python
    complex.
    """
    z, m = np.broadcast_arrays(np.asarray(z, dtype=complex),
                               np.asarray(m, dtype=int))
    out = exp_kernel(z.ravel(), [0.0], t0, t1, m.ravel()).reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def _closed_form(w, m, t0, t1, e0, e1):
    # (e1 q_m(t1) - e0 q_m(t0)) / w for e0, e1 = e^{w t0}, e^{w t1}
    q1 = q0 = 1.0
    for j in range(1, int(m.max(initial=0)) + 1):
        step = m >= j
        q1 = np.where(step, t1**j - j * q1 / w, q1)
        q0 = np.where(step, t0**j - j * q0 / w, q0)
    return (e1 * q1 - e0 * q0) / w


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


def _phase(w, t: float, dtype=complex):
    """e^{i w t} for real w in dtype's precision, right to an ulp at any
    |w t| and odd in w bit for bit: w t = p + e exactly, by Dekker's
    two-product over Veltkamp's split, and e^{i w t} = e^{ip} e^{ie}."""
    p = w * t
    (w_hi, w_lo), (t_hi, t_lo) = _split(w), _split(t)
    e = ((w_hi * t_hi - p) + w_hi * t_lo + w_lo * t_hi) + w_lo * t_lo
    return np.exp(1j * np.asarray(p, dtype)) * np.exp(1j * e)


def _split(x):
    """Veltkamp's split x = hi + lo, each half of the mantissa."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _factors(z, t0: float, t1: float) -> np.ndarray:
    """Rows Re z, Im z and the cos and sin parts of e^{i z t} = e^{i Re(z) t}
    e^{-Im(z) t} at t1 and, unless t0 = 0, at t0."""
    rows = [z.real, z.imag]
    for t in (t1,) if t0 == 0 else (t1, t0):
        decay = np.exp(-z.imag * t) if np.iscomplexobj(z) else 1.0
        cis = _phase(z.real, t) * decay
        rows += [cis.real, cis.imag]
    return np.array(rows)


def exp_kernel(z_rows, z_cols, t0: float, t1: float, m_rows=0,
               m_cols=0) -> np.ndarray:
    """The matrix K[i, j] = exp_poly_integral(z_rows[i] + z_cols[j],
    m_rows[i] + m_cols[j], t0, t1) or, when ``z_cols`` is None, the
    Hermitian K[i, j] = exp_poly_integral(z_rows[i] - conj(z_rows[j]),
    m_rows[i] + m_rows[j], t0, t1) (``m_cols`` unused).  No exponential is
    taken per entry: ``_integrals`` builds e^{i(z_i + z_j)t} from the exact
    phases and decays of each frequency by real products, not complex ones
    (which may fuse a multiply-add), so K[j, i] = conj K[i, j] and, for
    frequencies odd under a swap P of rows and columns, K[P, P] = conj K,
    bit for bit.  K is built a block of rows at a time, each block at most
    _BLOCK_ENTRIES entries (or one row), which bounds the temporaries.  In
    the Hermitian mode the block of rows [s, e) is evaluated only in the
    columns [s, n), e - s = _BLOCK_ENTRIES // (n - s) rows as the columns
    shrink, and K below it is its conjugate transpose: the upper triangle
    plus the lower triangles of the blocks' diagonal squares, 0.59 n^2 at
    n = 258 (N = 64), and all of K when n^2 <= _BLOCK_ENTRIES.
    """
    z_rows, m_rows = np.asarray(z_rows), np.asarray(m_rows)
    hermitian = z_cols is None
    z_cols, m_cols = ((-np.conj(z_rows), m_rows) if hermitian
                      else (np.asarray(z_cols), np.asarray(m_cols)))
    n = len(z_cols)
    f = _factors(np.concatenate([z_rows, z_cols]), t0, t1)
    f_rows, f_cols = f[:, :len(z_rows)], f[:, len(z_rows):]
    out = np.empty((len(z_rows), n), dtype=complex)
    start = 0
    while start < len(z_rows):
        first = start if hermitian else 0
        stop = start + max(1, _BLOCK_ENTRIES // max(1, n - first))
        rows, cols = slice(start, stop), slice(first, None)
        m = ((m_rows if m_rows.ndim == 0 else m_rows[rows, None])
             + (m_cols if m_cols.ndim == 0 else m_cols[cols]))
        _integrals(out[rows, cols], f_rows[:, rows, None],
                   f_cols[:, None, cols], m, t0, t1)
        if hermitian:
            out[stop:, rows] = out[rows, stop:].conj().T
        start = stop
    return out


def _integrals(out, r, c, m, t0: float, t1: float) -> None:
    """Writes to ``out`` the integrals at z = z_r + z_c, broadcast, and the
    degrees m from the ``_factors`` r of z_r and c of z_c: cos = c_r c_c -
    s_r s_c and sin = s_r c_c + c_r s_c at each end.  For real z and m = 0
    that is ``((sin1 - sin0) + i (cos0 - cos1)) / z``."""
    x = r[0] + c[0]
    if r[1].any() or c[1].any():
        x = x + 1j * (r[1] + c[1])
    series = np.abs(x) <= _SERIES_THRESHOLD / max(abs(t0), abs(t1), 1.0)
    near = x[series]
    # x = 1 keeps the closed forms finite where the series takes over
    x[series] = 1
    cos = r[2::2] * c[2::2]
    cos -= r[3::2] * c[3::2]
    sin = r[3::2] * c[2::2]
    sin += r[2::2] * c[3::2]
    (c1, c0), (s1, s0) = (cos, sin) if t0 else ((cos[0], 1.0), (sin[0], 0.0))
    if np.iscomplexobj(x) or m.any():
        out[...] = _closed_form(1j * x, m, t0, t1, c0 + 1j * s0, c1 + 1j * s1)
    else:
        np.divide(s1 - s0 if t0 else s1, x, out=out.real)
        np.divide(np.subtract(c0, c1, out=c1), x, out=out.imag)
    if near.size:
        out[series] = _series(1j * near, np.broadcast_to(m, x.shape)[series],
                              t0, t1)


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

    def l2_norm_sq(self, t0: float, t1: float) -> float:
        return total_l2_norm_sq([self], t0, t1)

    def bilinear_integral(self, other: "ExponentialSignal", t0: float, t1: float) -> complex:
        """Unconjugated ``integral s(t) o(t) dt`` in closed form (directed)."""
        a1, f1, d1 = self._stacked
        a2, f2, d2 = other._stacked
        return complex(a1[0] @ exp_kernel(f1, f2, t0, t1, d1, d2) @ a2[0])


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


def total_l2_norm_sq(signals, t0: float, t1: float) -> float:
    """``sum_s integral_{t0}^{t1} |s(t)|^2 dt`` in closed form, from one
    Hermitian kernel over the union of the signals' terms."""
    amps, freqs, degrees = stack_terms(signals)
    kernel_amps = amps @ exp_kernel(freqs, None, t0, t1, degrees)
    return float(np.real(np.sum(kernel_amps * np.conj(amps))))

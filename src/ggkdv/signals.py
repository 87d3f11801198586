"""Finite exponential-polynomial sums in time and their exact integrals.

Traces, controls and Gram entries all live in the class

    s(t) = sum_j A_j * t^{d_j} * e^{i mu_j t},   d_j in {0, 1},

so every time integral is ``integral t^m e^{i z t} dt`` with m = d_j + d_k
<= 2 and z a frequency sum or difference, moved off the real axis by 2 i w
under a weight e^{-2 w t}.  Every integral of an ``ExponentialSignal`` (norm,
cost, Duhamel step, bilinear integral) goes through ``_integrate``.  At
degree 0 and real frequencies it takes the real centred kernel: over an
interval of centre c and half-length h, ``integral e^{ixt} dt = e^{ixc}
K_h(x)``, K_h(x) = 2 sin(x h) / x.  ``exp_kernel`` lays the integral out as
the outer-sum matrix K[i, j] (Hermitian forms: K[i, j] = I(z_i - conj(z_j),
m_i + m_j)), with a power series near resonance |z| -> 0; it serves the
weighted Gramian Lambda_w, terms of degree > 0 and the Newton Gram.  Both
build their entries by real products from one exact phase per frequency.
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
    """The matrix K[i, j] = I(z_rows[i] + z_cols[j], m_rows[i] + m_cols[j])
    of I(z, m) = ``integral_{t0}^{t1} t^m e^{i z t} dt`` or, when ``z_cols``
    is None, the Hermitian K[i, j] = I(z_rows[i] - conj(z_rows[j]),
    m_rows[i] + m_rows[j]); for Lambda_w, degree > 0 terms and the Newton
    Gram.  ``_integrals`` builds e^{i(z_i + z_j)t} from each frequency's
    exact phase and decay by real products (complex ones may fuse a
    multiply-add), so K[j, i] = conj K[i, j] and, for frequencies odd under
    a swap P of rows and columns, K[P, P] = conj K, bit for bit.  K is
    built in blocks of whole rows, at most _BLOCK_ENTRIES entries (or one
    row) each; in the Hermitian mode only on and above the blocks' diagonal
    (0.59 n^2 at n = 258, N = 64), K below being its conjugate transpose.
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


def _centred_kernel(x, h: float):
    """``K_h(x) = integral_{-h}^{h} e^{i x t} dt = 2 sin(x h) / x``, real,
    even, exact at x = 0 and free of cancellation near it."""
    return 2 * h * np.sinc(x * (h / np.pi))


def _centred_matrix(rows, cols, h: float, cis, ops) -> list[np.ndarray]:
    """K[k][i, j] = K_h(ops[k](rows_i, cols_j)), ops np.add or np.subtract,
    by the addition formula 2 sin(x h) = 2 s_i c_j +- c_i 2 s_j from the
    exact phases ``cis`` = c + i s = e^{i w h} of rows (then cols), or by
    ``_centred_kernel`` where |x h| < 1.  Built in row blocks as
    ``exp_kernel``; cols None means rows, and K symmetric, evaluated only
    on and above the blocks' diagonal."""
    symmetric, cols = cols is None, rows if cols is None else cols
    s2, c = 2 * cis.imag, cis.real
    out = [np.empty((len(rows), len(cols))) for _ in ops]
    start = 0
    while start < len(rows):
        first = start if symmetric else 0
        stop = min(len(rows), start + max(1, _BLOCK_ENTRIES // max(
            1, len(cols) - first)))
        r, q = slice(start, stop), slice(len(c) - len(cols) + first, None)
        P, Q = np.multiply.outer(s2[r], c[q]), np.multiply.outer(c[r], s2[q])
        rows_r, cols_q = rows[r], cols[first:]
        for K, op in zip(out, ops):
            block, x = K[r, first:], op.outer(rows_r, cols_q)
            near = np.abs(x) * abs(h) < 1  # not 1 / h: h may underflow to 0
            x_near, x[near] = x[near], 1  # 1 keeps the division finite
            np.divide(op(P, Q, out=block), x, out=block)
            block[near] = _centred_kernel(x_near, h)
            if symmetric and stop < len(rows):
                K[stop:, r] = K[r, stop:].T
        start = stop
    return out


def _integrate(amps, freqs, degrees, t0: float, t1: float, cols=None,
               col_degrees=0):
    """``amps @ exp_kernel(freqs, cols, t0, t1, degrees, col_degrees)``.
    At degree 0, K[i, j] = e^{i x c} K_h(x), x = mu_i + zeta_j (mu = freqs,
    zeta = cols or -mu), c and h the centre and half-length of [t0, t1]:
    e^{i mu c} goes onto the amplitudes, whose real and imaginary parts take
    one real product with K_h, and e^{i zeta c} onto its columns."""
    if degrees.any() or np.count_nonzero(col_degrees):
        return amps @ exp_kernel(freqs, cols, t0, t1, degrees, col_degrees)
    c, h, hermitian = (t0 + t1) / 2, (t1 - t0) / 2, cols is None
    w = freqs if hermitian else np.concatenate([freqs, cols])
    cis = _phase(w, h)
    centre = cis if c == h else _phase(w, c)
    b = amps * centre[:len(freqs)]
    part = np.concatenate([b.real, b.imag]) @ _centred_matrix(
        freqs, cols, h, cis, [np.subtract if hermitian else np.add])[0]
    ends = np.conj(centre) if hermitian else centre[len(freqs):]
    return (part[:len(b)] + 1j * part[len(b):]) * ends


def _merge(amps, freqs, degrees):
    """Amplitude rows summed per (freq, degree) key from 0.0 in order, as a
    dict merge bit for bit: ``(sums, freqs, degrees)`` over sorted keys."""
    _, first, key = np.unique(freqs + 1j * degrees, return_index=True,
                              return_inverse=True)
    sums = np.zeros((len(amps), len(first)), dtype=complex)
    np.add.at(sums, (slice(None), key), amps)
    return sums, freqs[first], degrees[first]


def _signals(amps, freqs, degrees):
    """One signal per amplitude row from one ``_merge``, each without its
    zero amplitudes, keeping its arrays as ``_stacked``."""
    sums, freqs, degrees = _merge(amps, freqs, degrees)
    for k, row in zip(sums != 0, sums):
        sig = ExponentialSignal(tuple(zip(
            row[k].tolist(), freqs[k].tolist(), degrees[k].tolist())))
        sig.__dict__["_stacked"] = row[None, k], freqs[k], degrees[k]
        yield sig


@dataclass(frozen=True)
class ExponentialSignal:
    """Finite sum of terms ``amp * t^degree * e^{i freq t}``."""

    terms: tuple[tuple[complex, float, int], ...] = ()

    @staticmethod
    def from_terms(terms) -> "ExponentialSignal":
        """Build a signal, merging duplicate (freq, degree) keys and
        dropping zero amplitudes."""
        amps, freqs, degrees = tuple(zip(*terms)) or ((), (), ())
        return next(_signals(np.array([amps], dtype=complex), np.array(
            freqs, dtype=float), np.array(degrees, dtype=int)))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @cached_property
    def _stacked(self):
        """The terms as ``stack_terms`` arrays, built once per signal."""
        return ExponentialSignal.from_terms(self.terms)._stacked

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
        return complex(_integrate(a1, f1, d1, t0, t1, f2, d2)[0] @ a2[0])


def stack_terms(signals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signals as amplitude rows over the union of their (freq, degree)
    keys, ``(amps[len(signals), n], freqs[n], degrees[n])``: the signals'
    own ``_stacked`` arrays when their keys are the same, as the two
    controls of a plan, which then share one kernel row per key."""
    stacks = [s._stacked for s in signals] or [ExponentialSignal()._stacked]
    if len({(f.tobytes(), d.tobytes()) for _, f, d in stacks}) == 1:
        return (np.concatenate([a for a, _, _ in stacks])[:len(signals)],
                *stacks[0][1:])
    amps, freqs, degrees = (np.concatenate([s[i].ravel() for s in stacks])
                            for i in range(3))
    rows = np.repeat(np.arange(len(stacks)), [len(s[1]) for s in stacks])
    return _merge(np.where(rows == np.arange(len(stacks))[:, None], amps, 0),
                  freqs, degrees)


def total_l2_norm_sq(signals, t0: float, t1: float) -> float:
    """``sum_s integral_{t0}^{t1} |s(t)|^2 dt`` in closed form, from one
    Hermitian kernel over the union of the signals' terms (``_integrate``)."""
    amps, freqs, degrees = stack_terms(signals)
    kernel_amps = _integrate(amps, freqs, degrees, t0, t1)
    return float(np.real(np.sum(kernel_amps * np.conj(amps))))

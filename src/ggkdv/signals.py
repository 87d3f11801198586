"""Finite exponential sums s(t) = sum_j A_j e^{i mu_j t} and their exact
integrals ``integral e^{i x t} dt``, x a frequency sum or difference: over
centre c and half-length h, ``e^{i x c} K_h(x)`` with the real centred
kernel K_h(x) = 2 sin(x h) / x (``_centred_matrix``, through which every
integral of an ``ExponentialSignal`` goes in ``_integrate``), and under a
weight e^{-2 w t}, as in Lambda_w, at x + 2 i w (``_shifted_matrix``).
Both build their entries by real products from one exact phase each."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

# Entries of a kernel built at once, in whole rows (29 at N=64): its
# temporaries stay under 128 KiB, above which malloc maps (and faults in)
# fresh pages for each.
_BLOCK_ENTRIES = 7680
# sin(u) / u in powers of u^2, the highest first: to 2e-20 at |u| <= 1
_SINC_SERIES = [(-1) ** k / math.factorial(2 * k + 1) for k in range(10)][::-1]


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


def _row_blocks(n_rows: int, n_cols: int, symmetric: bool):
    """``(rows, first)``: blocks of whole rows, at most _BLOCK_ENTRIES
    entries (or one row) each, over the columns from ``first``, the block's
    diagonal when ``symmetric`` (0.59 n^2 entries at n = 258), else 0."""
    start = 0
    while start < n_rows:
        first = start if symmetric else 0
        stop = min(n_rows, start + max(1, _BLOCK_ENTRIES // max(
            1, n_cols - first)))
        yield slice(start, stop), first
        start = stop


def _centred_kernel(x, h: float):
    """``K_h(x) = integral_{-h}^{h} e^{i x t} dt = 2 sin(x h) / x``, real,
    even, exact at x = 0 and free of cancellation near it."""
    return 2 * h * np.sinc(x * (h / np.pi))


def _centred_matrix(rows, cols, h: float, cis, ops) -> list[np.ndarray]:
    """K[k][i, j] = K_h(ops[k](rows_i, cols_j)), ops np.add or np.subtract,
    by the addition formula 2 sin(x h) = 2 s_i c_j +- c_i 2 s_j from the
    exact phases ``cis`` = c + i s = e^{i w h} of rows (then cols), or
    ``_centred_kernel`` where |x h| < 1; in ``_row_blocks``, on and above
    the diagonal when cols is None (meaning rows), K then symmetric."""
    symmetric, cols = cols is None, rows if cols is None else cols
    s2, c = 2 * cis.imag, cis.real
    out = [np.empty((len(rows), len(cols))) for _ in ops]
    for r, first in _row_blocks(len(rows), len(cols), symmetric):
        q = slice(len(c) - len(cols) + first, None)
        P, Q = np.multiply.outer(s2[r], c[q]), np.multiply.outer(c[r], s2[q])
        rows_r, cols_q = rows[r], cols[first:]
        for K, op in zip(out, ops):
            block, x = K[r, first:], op.outer(rows_r, cols_q)
            near = np.abs(x) * abs(h) < 1  # not 1 / h: h may underflow to 0
            x_near, x[near] = x[near], 1  # 1 keeps the division finite
            np.divide(op(P, Q, out=block), x, out=block)
            block[near] = _centred_kernel(x_near, h)
            if symmetric:
                K[r.stop:, r] = K[r, r.stop:].T
    return out


def _shifted_matrix(w, h: float, rate: float, cis) -> np.ndarray:
    """k[i, j] = e^{-2 rate h} K_h(x), x = w_j - w_i + 2 i rate: Lambda_w's
    ``integral_0^{2h} e^{-2 rate s} e^{-i (w_i - w_j) s} ds`` is e^{-i w_i h}
    k[i, j] e^{i w_j h}.  For delta = w_i - w_j, e^{-2 rate h} 2 sin(x h) =
    -sin(delta h) C + i cos(delta h) S with C = 1 + e^{-4 rate h} and S =
    -expm1(-4 rate h), so nothing overflows, times conj(x) / |x|^2; sin and
    cos by the addition formula from the exact phases ``cis`` = e^{i w h},
    and the series of sin(x h) / (x h) where |x h| <= 1.  Built as the
    symmetric ``_centred_matrix``: k = k^H and, for w odd under a swap P,
    k[P, P] = conj(k), bit for bit."""
    r2, decay = 2 * rate, -4 * rate * h
    C, S = 1 + math.exp(decay), -math.expm1(decay)
    s, c = cis.imag, cis.real
    lim = 1 / h / h  # |x h| <= 1 where |x|^2 <= lim, nowhere if r2^2 > lim
    out = np.empty((len(w), len(w)), dtype=complex)
    for r, first in _row_blocks(len(w), len(w), True):
        q = slice(first, None)
        sin = np.multiply.outer(s[r], c[q])
        sin -= np.multiply.outer(c[r], s[q])
        sin *= C
        cos = np.multiply.outer(c[r], c[q])
        cos += np.multiply.outer(s[r], s[q])
        cos *= S
        d = np.subtract.outer(w[r], w[q])
        x2 = d * d + r2 * r2
        near = np.flatnonzero(x2 <= lim) if r2 * r2 <= lim else []
        x2.flat[near] = 1  # 1 keeps the division finite
        block = out[r, q]
        np.divide(sin * d + cos * r2, x2, out=block.real)
        np.divide(sin * r2 - cos * d, x2, out=block.imag)
        if len(near):
            # Horner's rule in u^2, u = x h: conj(u) gives conj, bit for bit
            u2 = ((1j * r2 - d.flat[near]) * h) ** 2
            block.flat[near] = 2 * h * math.exp(-r2 * h) * np.polyval(
                _SINC_SERIES, u2)
        out[r.stop:, r] = out[r, r.stop:].conj().T
    return out


def _integrate(amps, freqs, t0: float, t1: float, cols=None):
    """``amps @ K``, K[i, j] = ``integral_{t0}^{t1} e^{i x t} dt`` =
    e^{i x c} K_h(x) at x = mu_i + zeta_j (mu = freqs, zeta = cols or -mu),
    c and h the centre and half-length of [t0, t1]: e^{i mu c} goes onto the
    amplitudes, whose real and imaginary parts take one real product with
    K_h, and e^{i zeta c} onto its columns."""
    c, h, hermitian = (t0 + t1) / 2, (t1 - t0) / 2, cols is None
    w = freqs if hermitian else np.concatenate([freqs, cols])
    cis = _phase(w, h)
    centre = cis if c == h else _phase(w, c)
    b = amps * centre[:len(freqs)]
    part = np.concatenate([b.real, b.imag]) @ _centred_matrix(
        freqs, cols, h, cis, [np.subtract if hermitian else np.add])[0]
    ends = np.conj(centre) if hermitian else centre[len(freqs):]
    return (part[:len(b)] + 1j * part[len(b):]) * ends


def _merge(amps, freqs):
    """Amplitude rows summed per frequency from 0.0 in order, as a dict
    merge bit for bit: ``(sums, freqs)`` over the sorted frequencies."""
    _, first, key = np.unique(freqs, return_index=True, return_inverse=True)
    sums = np.zeros((len(amps), len(first)), dtype=complex)
    np.add.at(sums, (slice(None), key), amps)
    return sums, freqs[first]


def _signals(amps, freqs):
    """One signal per amplitude row from one ``_merge``, each without its
    zero amplitudes, keeping its arrays as ``_stacked``."""
    sums, freqs = _merge(amps, freqs)
    for k, row in zip(sums != 0, sums):
        sig = ExponentialSignal(tuple(zip(row[k].tolist(), freqs[k].tolist(),
                                          repeat(0))))
        sig.__dict__["_stacked"] = row[None, k], freqs[k]
        yield sig


@dataclass(frozen=True)
class ExponentialSignal:
    """Finite sum of terms ``amp * e^{i freq t}``, each held as the triple
    ``(amp, freq, 0)``: the degree slot is always 0."""

    terms: tuple[tuple[complex, float, int], ...] = ()

    @staticmethod
    def from_terms(terms) -> "ExponentialSignal":
        """Build a signal, merging duplicate frequencies and dropping zero
        amplitudes.  Raises ValueError for a term of nonzero degree."""
        amps, freqs, degrees = tuple(zip(*terms)) or ((), (), ())
        if any(degrees):
            raise ValueError("signal terms must have degree 0")
        return next(_signals(np.array([amps], dtype=complex),
                             np.array(freqs, dtype=float)))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @cached_property
    def _stacked(self):
        """The terms as ``stack_terms`` arrays, built once per signal."""
        return ExponentialSignal.from_terms(self.terms)._stacked

    def evaluate(self, t):
        """Evaluate the signal at scalar or array times."""
        amps, freqs = self._stacked
        t = np.asarray(t, dtype=float)[..., None]
        out = np.sum(amps[0] * np.exp(1j * freqs * t), axis=-1)
        return out if out.shape else complex(out)

    def l2_norm_sq(self, t0: float, t1: float) -> float:
        return total_l2_norm_sq([self], t0, t1)

    def bilinear_integral(self, other: "ExponentialSignal", t0: float, t1: float) -> complex:
        """Unconjugated ``integral s(t) o(t) dt`` in closed form (directed)."""
        (a1, f1), (a2, f2) = self._stacked, other._stacked
        return complex(_integrate(a1, f1, t0, t1, f2)[0] @ a2[0])


def stack_terms(signals) -> tuple[np.ndarray, np.ndarray]:
    """Signals as amplitude rows over the union of their frequencies,
    ``(amps[len(signals), n], freqs[n])``: the signals' own ``_stacked``
    arrays when their frequencies are the same, as the two controls of a
    plan, which then share one kernel row per frequency."""
    stacks = [s._stacked for s in signals] or [ExponentialSignal()._stacked]
    amps, freqs = zip(*stacks)
    if len({f.tobytes() for f in freqs}) == 1:
        return np.concatenate(amps)[:len(signals)], freqs[0]
    rows = np.repeat(np.arange(len(amps)), [len(f) for f in freqs])
    flat = np.concatenate([a.ravel() for a in amps])
    return _merge(np.where(rows == np.arange(len(amps))[:, None], flat, 0),
                  np.concatenate(freqs))


def total_l2_norm_sq(signals, t0: float, t1: float) -> float:
    """``sum_s integral_{t0}^{t1} |s(t)|^2 dt`` in closed form, from one
    Hermitian kernel over the union of the signals' terms (``_integrate``)."""
    amps, freqs = stack_terms(signals)
    return float(np.real(np.sum(_integrate(amps, freqs, t0, t1)
                                * np.conj(amps))))

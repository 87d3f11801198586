"""Closed-form spectral data of the coupled third-order dispersive system.

Per Fourier mode k the pair (u,v) evolves by ``z' = i S_k z`` with a real
2x2 symbol matrix S_k.  Both eigenfrequencies and eigenvectors have closed
forms; the eigenvectors are real and orthogonal in the weighted product

    <y, z>_w = y1 conj(z1) + (a c / d) y2 conj(z2).

This module also provides gap statistics of the two frequency branches,
an upper-density estimate for the merged family, per-instance resonance
detection, and the critical observation/control time.

Large-|k| asymptotics, with disc = sqrt(4acd + (c-1)^2): the plus branch
grows like A k^3, A = (c+1+disc)/(2c).  The minus branch grows like B k^3,
B = (c+1-disc)/(2c) = 2(1-ad)/(c+1+disc), except on the resonant surface
a*d = 1, where disc = c+1, the cubic term cancels and

    omega_k^- = -r k/(c+1) + O(1/k).

Its gap then tends to r/(c+1), so Ingham's theorem gives the sharp time
T0 = 2 pi (c+1)/r.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GGKdVError
from .signals import _phase

#: Relative tolerance deciding the degenerate regime a*d = 1.  The regime
#: switch changes qualitative behaviour (positive critical time), so it is
#: an explicit classification rather than a numerical accident.
RESONANCE_EPS = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """The positive coefficient quadruple (a, c, d, r) of the system."""

    a: float
    c: float
    d: float
    r: float

    def __post_init__(self):
        for name in ("a", "c", "d", "r"):
            if not getattr(self, name) > 0:
                raise ValueError(f"parameter {name} must be positive")

    @property
    def weight(self) -> float:
        """Weight of the v-component in the energy norm."""
        return self.a * self.c / self.d

    @property
    def resonant(self) -> bool:
        """True on the degenerate surface a*d = 1."""
        return abs(self.a * self.d - 1.0) <= RESONANCE_EPS


#: Named parameter presets used throughout the experiments.
PRESETS = {
    "generic": PhysicalParams(2.0, 1.0, 1.0, 1.0),
    "resonant": PhysicalParams(1.0, 1.0, 1.0, 1.0),
}


class Branch(enum.IntEnum):
    """Spectral branch label, the row of the ``SpectrumTable`` arrays."""

    PLUS = 0
    MINUS = 1

    def __str__(self) -> str:
        return "+" if self is Branch.PLUS else "-"


def symbol_matrix(params: PhysicalParams, k: int) -> np.ndarray:
    """Real 2x2 matrix S_k; the per-mode generator is i * S_k."""
    a, c, d, r = params.a, params.c, params.d, params.r
    k3 = float(k) ** 3
    return np.array([[k3, a * k3], [d * k3 / c, (k3 - r * k) / c]])


def _closed_forms(params: PhysicalParams, ks):
    """Frequencies (2, n) and forward and adjoint eigenvectors (2, n, 2) of
    the modes ``ks``, indexed ``[branch, j]`` with branch 0 = plus.

    The frequency branch follows the sign in front of the square-root term
    ``k * sqrt(...)``, so omega(-k) = -omega(k) per branch.  For k != 0 the
    eigenvectors use the k^-3-scaled form, so components stay O(1) for
    large |k|; the degenerate mode k = 0 gets the fixed basis
    (2ac, +-sqrt(4acd)).  The adjoint (transposed-symbol) eigenvectors
    share the v-components; their u-component is 2d instead of 2ac.  As
    v+ v- = -4acd, Zt^b . Z^b' = delta_bb' ||Z^b||_w^2 / w: ``hum``'s
    duality map is diagonal.
    """
    a, c, d, r = params.a, params.c, params.d, params.r
    kf = np.asarray(ks, dtype=float)
    root = kf * np.sqrt(4 * a * c * d * kf**4 + ((c - 1) * kf**2 + r) ** 2)
    base = (c + 1) * kf**3 - r * kf
    omega = np.stack([(base + root) / (2 * c), (base - root) / (2 * c)])
    zero = kf == 0
    rk2 = r / np.where(zero, 1.0, kf) ** 2
    vroot = np.sqrt(4 * a * c * d + (c - 1 + rk2) ** 2)
    v = np.stack([1 - c - rk2 + vroot, 1 - c - rk2 - vroot])
    s = math.sqrt(4 * a * c * d)
    v[:, zero] = [[s], [-s]]
    z = np.stack([np.broadcast_to(2 * a * c, v.shape), v], axis=-1)
    zt = np.stack([np.broadcast_to(2 * d, v.shape), v], axis=-1)
    return omega, z, zt


def critical_time(params: PhysicalParams) -> float:
    """Minimal window length for inverse observability, 2 pi / (asymptotic
    minus-branch gap) = 2 pi (c+1)/r; positive only in the degenerate
    regime a*d = 1 (otherwise every gap grows without bound)."""
    if not params.resonant:
        return 0.0
    return 2 * math.pi * (params.c + 1) / params.r


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Vectorized spectral data for |k| <= N.

    Arrays are indexed ``[branch, k + N]`` with branch 0 = plus, 1 = minus.
    """

    N: int
    omega: np.ndarray       # (2, 2N+1) frequencies
    z: np.ndarray           # (2, 2N+1, 2) forward eigenvectors (real)
    zt: np.ndarray          # (2, 2N+1, 2) adjoint eigenvectors (real)
    norm2: np.ndarray       # (2, 2N+1) weighted norms ||Z||_w^2

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)

    @cached_property
    def labels(self) -> tuple:
        """(k, branch) of each column of the arrays flattened over
        (branch, k)."""
        return tuple((int(k), b) for b in Branch for k in self.ks)


@lru_cache(maxsize=64)
def spectrum_table(params: PhysicalParams, N: int) -> SpectrumTable:
    """Raises GGKdVError when omega is not finite, or a norm (and so z or
    zt) is not finite and positive: as when the weight ac/d or its
    reciprocal is 0 or inf, or a norm underflows to 0."""
    if N < 0:
        raise ValueError("truncation N must be >= 0")
    w = np.float64(params.weight)  # so 1/w at w = 0 is inf, not an error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega, z, zt = _closed_forms(params, np.arange(-N, N + 1))
        norm2 = z[:, :, 0] ** 2 + w * z[:, :, 1] ** 2
        adjoint_norm2 = zt[:, :, 0] ** 2 + (1.0 / w) * zt[:, :, 1] ** 2
    if not (np.all(np.isfinite(omega)) and all(
            np.all((0 < n) & (n < np.inf)) for n in (norm2, adjoint_norm2))):
        raise GGKdVError(f"{params} at N={N} has no finite spectrum table "
                         "with positive norms")
    return SpectrumTable(N, omega, z, zt, norm2)


def trace_amplitudes(params: PhysicalParams, N: int, x0: float,
                     adjoint: bool = False) -> np.ndarray:
    """Pointwise trace amplitudes ``e^{ikx0} Z[b, k, c]`` at x0, shape
    (2, 2(2N+1)): row c is the channel (u, v), or (phi, psi) of the adjoint
    eigenvectors when ``adjoint``; columns run over (branch, k) in the
    order of ``SpectrumTable.labels``.

    A trace of coefficients c is ``sum_j c_j amps[:, j] e^{i omega_j t}``;
    by duality, a Dirac input at x0 enters mode j through conj(amps[:, j]).
    """
    table = spectrum_table(params, N)
    z = (table.zt if adjoint else table.z).transpose(2, 0, 1)
    z = z * mode_phases(table, x0) if x0 else z  # all 1 at x0 = 0
    return z.reshape(2, -1).astype(complex)


def mode_phases(table: SpectrumTable, x0: float,
                t_c: float = 0.0) -> np.ndarray:
    """The diagonal ``e^{i(k x0 + omega t_c)}`` over [branch, k + N], shape
    (2, 2N+1), through which the point x0 and a window's centre t_c enter
    the traces and their Gram matrices, in long double: x0 is reduced
    exactly modulo 2 pi, and both factors are exact phases
    (``signals._phase``), right to an ulp of long double at any x0 and t_c.
    A caller in double rounds the diagonal once."""
    x0 = math.fmod(x0, 2 * math.pi)
    return (_phase(table.ks, x0, np.clongdouble)
            * _phase(table.omega, t_c, np.clongdouble))


# The real-field basis U pairs each mode with its partner -k on the same
# branch: u_k = (e_k + e_-k)/sqrt2 and v_k = i (e_k - e_-k)/sqrt2 for k > 0,
# and e_0 as is.  conj(U) = P U for the swap P: k <-> -k, so a matrix F
# with P F P = conj(F) is real in this basis (the feedback Gramian and
# generator), and a real F with P F P = F (the observation form) is block
# diagonal there (``gram._parity_blocks``).  The real coordinates are laid
# out as those blocks: first C+, [e_0, u_1 .. u_N] per branch (2(N+1)
# entries), then C-, [v_1 .. v_N] per branch (2N entries).  U is applied by
# index arithmetic over the (k, -k) pairs, never as a matrix, with sqrt2 in
# its operand's precision (long double in ``hum``'s refinement).


def _to_real(y: np.ndarray) -> np.ndarray:
    """U^H y over the leading axis n = 2(2N+1), ordered as [branch, k+N],
    in the layout [C+, C-] above."""
    y = np.asarray(y)
    N, rest = (len(y) // 2 - 1) // 2, y.shape[1:]
    y, root2 = y.reshape(2, 2 * N + 1, *rest), np.sqrt(y.real.dtype.type(2))
    p, m = y[:, N + 1:], y[:, :N][:, ::-1]
    plus = np.concatenate([y[:, N:N + 1], (p + m) / root2], axis=1)
    minus = (m - p) * (1j / root2)
    return np.concatenate([plus.reshape(-1, *rest), minus.reshape(-1, *rest)])


def _from_real(z: np.ndarray) -> np.ndarray:
    """U z over the leading axis, the inverse of ``_to_real``."""
    z = np.asarray(z)
    N, rest = (len(z) // 2 - 1) // 2, z.shape[1:]
    plus = z[:2 * N + 2].reshape(2, N + 1, *rest)
    p, im = plus[:, 1:], 1j * z[2 * N + 2:].reshape(2, N, *rest)
    root2 = np.sqrt(z.real.dtype.type(2))
    y = np.concatenate([((p - im) / root2)[:, ::-1], plus[:, :1],
                        (p + im) / root2], axis=1)
    return y.reshape(len(z), *rest)


@dataclass(frozen=True, eq=False)
class GapReport:
    N: int
    plus_gaps: np.ndarray   # omega_{k+1}^+ - omega_k^+ for k = -N .. N-1
    minus_gaps: np.ndarray
    A_const: float
    B_or_slope: float
    gamma_inf_estimate: float
    D_plus_estimate: float
    T0: float


def _max_count_in_window(sorted_freqs: np.ndarray, length: float) -> int:
    """Largest number of family members in any interval of given length."""
    counts = np.searchsorted(sorted_freqs, sorted_freqs + length, side="right")
    return int(np.max(counts - np.arange(len(sorted_freqs))))


def gap_report(params: PhysicalParams, N: int) -> GapReport:
    """Gap sequences, asymptotic constants, density and critical time."""
    if N < 2:
        raise ValueError("gap report needs N >= 2")
    a, c, d, r = params.a, params.c, params.d, params.r
    table = spectrum_table(params, N)
    plus_gaps = np.diff(table.omega[0])
    minus_gaps = np.diff(table.omega[1])

    disc = math.sqrt(4 * a * c * d + (c - 1) ** 2)
    A_const = (c + 1 + disc) / (2 * c)
    if params.resonant:
        B_or_slope = -r / (c + 1)
    else:
        B_or_slope = 2 * (1 - a * d) / (c + 1 + disc)

    merged = np.sort(table.omega.ravel())
    span = float(merged[-1] - merged[0])
    T0 = critical_time(params)
    if T0 > 0:
        # The spec's span/2 rung degenerates the infimum at finite
        # truncation (huge empty windows), so the ladder stays near T0.
        ladder = [T0 / 4, T0 / 2, T0, 2 * T0]
    else:
        ladder = [span / 2**j for j in range(1, 9)]
    ladder = [l for l in ladder if 0 < l <= span] or [span / 2]
    D_plus = min(_max_count_in_window(merged, l) / l for l in ladder)

    gamma_inf = 0.0
    for M in (1, 2, 4, 8, 16, 32):
        if M >= len(merged):
            break
        inf_gap = float(np.min(merged[M:] - merged[:-M])) / M
        gamma_inf = max(gamma_inf, inf_gap)

    return GapReport(N, plus_gaps, minus_gaps, A_const, B_or_slope,
                     gamma_inf, D_plus, T0)


@dataclass(frozen=True)
class ResonanceReport:
    violations: tuple


def resonance_check(params: PhysicalParams, N: int, tol: float) -> ResonanceReport:
    """All pairs of distinct (k, branch) labels with |k|,|n| <= N whose
    frequencies lie within tol of each other.

    The structural coincidence omega_0^+ = omega_0^- = 0 is excluded.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    table = spectrum_table(params, N)
    freqs, labels = table.omega.ravel(), table.labels
    order = np.argsort(freqs, kind="stable")
    f, structural = freqs[order], {(0, Branch.PLUS), (0, Branch.MINUS)}
    # sorted, f_i pairs with the f_j, i < j < stop_i, where f_j - f_i < tol:
    # stop from f_i + tol to an ulp, then moved by the exact test (f_n = inf)
    g = np.append(f, np.inf)
    stop = np.maximum(np.searchsorted(f, f + tol), np.arange(1, len(f) + 1))
    while (step := (g[stop] - f < tol) * 1 - (g[stop - 1] - f >= tol)).any():
        stop += step
    order = order.tolist()
    return ResonanceReport(tuple(sorted(
        tuple(sorted((labels[order[i]], labels[order[j]])))
        for i, end in enumerate(stop.tolist()) for j in range(i + 1, end)
        if {labels[order[i]], labels[order[j]]} != structural)))

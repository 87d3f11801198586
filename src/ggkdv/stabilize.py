"""Pointwise feedback gains from an exponentially weighted trace Gramian.

Working in orthonormal eigen-coordinates (where the free generator is the
skew diagonal ``i omega``), the gain is the classical fast-stabilization
feedback ``K = -B^H Lambda_w^{-1}`` built from the weighted Gramian

    Lambda_w = integral_0^{Th} e^{-2 w s} e^{-sA} B B^H e^{-s A^H} ds,

whose entries are again closed-form exponential integrals (the weight
shifts every frequency difference by 2 i w).  The closed loop is then
verified by matrix-exponential simulation and a decay-rate fit.

Everything after the Gramian runs in the real-field basis: per branch,
u_k = (e_k + e_-k)/sqrt2 and v_k = i (e_k - e_-k)/sqrt2 for k > 0, and
e_0 as is.  The swap P: k <-> -k sends omega to -omega and each input
column e^{-ikx0} Z_k to its conjugate (Z_k is real and even in k), so
P B = conj(B), P Lambda_w P = conj(Lambda_w) and, for the closed-loop
generator A, P A P = conj(A).  The basis U has conj(U) = P U, so U^H B,
U^H Lambda_w U and U^H A U are real: the Gramian solve, the free part (a
block [[0, -omega_k], [omega_k, 0]] on each pair (u_k, v_k)), the matrix
exponential and the eigenvalues are all real computations.  U is applied
by index arithmetic over the (k, -k) pairs, never as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GramianSingular
from .gram import trace_gram
from .modal import ModalState
from .spectral import (PhysicalParams, _from_real, _halves, _to_real,
                       critical_time, resonance_check, spectrum_table,
                       trace_amplitudes)

SINGULAR_REL_TOL = 1e-13


def _free_generator(omega: np.ndarray) -> np.ndarray:
    """U^H diag(i omega) U: a rotation block on each pair (u_k, v_k)."""
    n = len(omega)
    p, m = (half.ravel() for half in _halves(np.arange(n)))
    A = np.zeros((n, n))
    A[m, p] = omega[p]
    A[p, m] = -omega[p]
    return A


@dataclass(eq=False)
class FeedbackGains:
    """Linear feedback functionals over modal coordinates.

    ``F_row`` and ``G_row`` act on the flattened coefficient vector
    c[branch, k+N] and give the two scalar control amplitudes.
    """

    params: PhysicalParams
    N: int
    x0: float
    omega_target: float
    horizon_Th: float
    F_row: np.ndarray
    G_row: np.ndarray
    real_loop: np.ndarray     # generator in the real-field basis, U^H A U

    @cached_property
    def closed_loop(self) -> np.ndarray:
        """The generator A in orthonormal coordinates, U A_r U^H."""
        return _from_real(_from_real(self.real_loop.T).conj().T)


def _weighted_gramian(params: PhysicalParams, N: int, x0: float,
                      omega_target: float, Th: float):
    """(omega, scale, B, Lambda_w) in orthonormal coordinates y = scale * c."""
    table = spectrum_table(params, N)
    omega = table.omega.ravel()
    scale = np.sqrt(2 * np.pi * table.norm2).ravel()
    # a unit control enters mode j through conj(amps[c, j]) w_c / scale_j,
    # w = (1, ac/d)
    inputs = (np.conj(trace_amplitudes(params, N, x0))
              * [[1.0], [params.weight]] / scale)
    # entry (m, j) integrates e^{i (omega_j - omega_m + 2 i w) s}
    lam = trace_gram(inputs, -omega, 0.0, Th, shift=2j * omega_target)
    return omega, scale, inputs.T, lam


def feedback_gains(params: PhysicalParams, N: int, x0: float,
                   omega_target: float, Th: float) -> FeedbackGains:
    """Gains achieving closed-loop decay at (at least) the target rate.

    Requires a horizon beyond the critical time and a resonance-free
    truncated spectrum; raises GramianSingular otherwise.
    """
    if omega_target < 0:
        raise ValueError("omega_target must be >= 0")
    if Th <= critical_time(params):
        raise ValueError("horizon must exceed the critical time")
    if resonance_check(params, N, 1e-9).violations:
        raise ValueError("truncated spectrum has resonant pairs")
    omega, scale, B, lam = _weighted_gramian(params, N, x0, omega_target, Th)
    # U^H Lambda_w U = U^H (U^H Lambda_w)^H, Lambda_w being Hermitian
    lam_r = _to_real(_to_real(lam).conj().T).real
    vals = np.linalg.eigvalsh(lam_r)
    if vals[0] <= SINGULAR_REL_TOL * vals[-1]:
        raise GramianSingular("weighted Gramian numerically singular",
                              min_eigenvalue=float(vals[0]))
    B_r = _to_real(B).real
    K_r = -np.linalg.solve(lam_r, B_r).T
    # K = K_r U^H; rows over modal coefficients: control = (K * scale) c
    K = _from_real(K_r.T).conj().T * scale
    return FeedbackGains(params, N, x0, omega_target, Th, K[0], K[1],
                         _free_generator(omega) + B_r @ K_r)


def zero_gains(params: PhysicalParams, N: int, x0: float,
               omega_target: float = 0.0, Th: float = 1.0) -> FeedbackGains:
    """Open-loop reference: zero feedback, conservative dynamics."""
    omega = spectrum_table(params, N).omega.ravel()
    n = len(omega)
    return FeedbackGains(params, N, x0, omega_target, Th,
                         np.zeros(n, dtype=complex), np.zeros(n, dtype=complex),
                         _free_generator(omega))


@dataclass(eq=False)
class DecayReport:
    times: np.ndarray
    energies: np.ndarray
    fitted_decay_rate: float
    fitted_M: float
    abscissa: float


def spectral_abscissa(gains: FeedbackGains) -> float:
    return float(np.max(np.linalg.eigvals(gains.real_loop).real))


def closed_loop_simulate(params: PhysicalParams, N: int, gains: FeedbackGains,
                         state0: ModalState, T_sim: float,
                         steps: int = 400) -> DecayReport:
    """Energy decay of the closed loop, integrated by matrix exponential
    over uniform steps; the decay rate is fitted on the tail half of the
    horizon, or of its part before the energy underflows (rate of the
    state norm, i.e. half the log-energy slope).

    The state z = U^H y is carried as the real columns [Re z, Im z], which
    the real generator propagates separately."""
    import scipy.linalg
    if T_sim <= 0:
        raise ValueError("T_sim must be positive")
    table = spectrum_table(params, N)
    z = _to_real(state0.coeffs.ravel() * np.sqrt(2 * np.pi * table.norm2).ravel())
    states = np.empty((steps + 1, len(z), 2))
    states[0] = np.stack([z.real, z.imag], axis=1)
    step = scipy.linalg.expm(gains.real_loop * (T_sim / steps))
    for i in range(steps):
        np.matmul(step, states[i], out=states[i + 1])
    times = np.linspace(0.0, T_sim, steps + 1)
    energies = np.einsum("tjc,tjc->t", states, states)
    norm0 = np.sqrt(energies[0]) if energies[0] > 0 else 1.0
    # the overshoot over e^{-0.9 w t} in logs, where neither factor
    # underflows on long horizons; an energy of 0 gives -inf and bounds
    # nothing
    with np.errstate(divide="ignore"):
        excess = 0.5 * np.log(energies) + 0.9 * gains.omega_target * times
    fitted_M = float(np.exp(np.max(excess) - np.log(norm0)))
    # the fit runs over the span whose energies are normal floats: past it
    # they underflow, and the logs of clipped values flatten the slope
    tiny = np.finfo(float).tiny
    normal = np.flatnonzero(energies >= tiny)
    end = times[normal[-1]] if normal.size else T_sim
    tail = (times >= end / 2) & (times <= end)
    logs = np.log(np.maximum(energies[tail], tiny))
    slope = np.polyfit(times[tail], logs, 1)[0]
    return DecayReport(times, energies, -slope / 2, fitted_M,
                       spectral_abscissa(gains))

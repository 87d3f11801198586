"""Pointwise feedback gains from an exponentially weighted trace Gramian.

Working in orthonormal eigen-coordinates (where the free generator is the
skew diagonal ``i omega``), the gain is the classical fast-stabilization
feedback ``K = -B^H Lambda_w^{-1}`` built from the weighted Gramian

    Lambda_w = integral_0^{Th} e^{-2 w s} e^{-sA} B B^H e^{-s A^H} ds,

whose entries are again closed-form exponential integrals (the weight
shifts every frequency difference by 2 i w).  The closed loop is then
verified by matrix-exponential simulation and a decay-rate fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GramianSingular
from .gram import trace_gram
from .modal import ModalState
from .spectral import (PhysicalParams, critical_time, resonance_check,
                       spectrum_table, trace_amplitudes)

SINGULAR_REL_TOL = 1e-13


@dataclass
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
    closed_loop: np.ndarray   # generator in orthonormal coordinates


def feedback_gains(params: PhysicalParams, N: int, x0: float,
                   omega_target: float, Th: float) -> FeedbackGains:
    """Gains achieving closed-loop decay at (at least) the target rate.

    Requires a horizon beyond the critical time and a resonance-free
    truncated spectrum; raises GramianSingular otherwise.
    """
    import scipy.linalg
    if omega_target < 0:
        raise ValueError("omega_target must be >= 0")
    if Th <= critical_time(params):
        raise ValueError("horizon must exceed the critical time")
    if resonance_check(params, N, 1e-9).violations:
        raise ValueError("truncated spectrum has resonant pairs")
    table = spectrum_table(params, N)
    omega = table.omega.ravel()
    scale = np.sqrt(2 * np.pi * table.norm2).ravel()
    # in orthonormal coordinates y = scale * c a unit control enters mode j
    # through conj(amps[c, j]) w_c / scale_j, w = (1, ac/d)
    inputs = (np.conj(trace_amplitudes(params, N, x0))
              * [[1.0], [params.weight]] / scale)
    B = inputs.T
    # entry (m, j) integrates e^{i (omega_j - omega_m + 2 i w) s}
    lam = trace_gram(inputs, -omega, 0.0, Th, shift=2j * omega_target)
    vals = scipy.linalg.eigvalsh(lam)
    if vals[0] <= SINGULAR_REL_TOL * vals[-1]:
        raise GramianSingular("weighted Gramian numerically singular",
                              min_eigenvalue=float(vals[0]))
    K = -np.linalg.solve(lam, B).conj().T
    closed_loop = np.diag(1j * omega) + B @ K
    # rows over modal coefficients: control = K_y y = (K_y * scale) c
    F_row = K[0] * scale
    G_row = K[1] * scale
    return FeedbackGains(params, N, x0, omega_target, Th, F_row, G_row,
                         closed_loop)


def zero_gains(params: PhysicalParams, N: int, x0: float,
               omega_target: float = 0.0, Th: float = 1.0) -> FeedbackGains:
    """Open-loop reference: zero feedback, conservative dynamics."""
    omega = spectrum_table(params, N).omega.ravel()
    n = len(omega)
    return FeedbackGains(params, N, x0, omega_target, Th,
                         np.zeros(n, dtype=complex), np.zeros(n, dtype=complex),
                         np.diag(1j * omega))


@dataclass
class DecayReport:
    times: np.ndarray
    energies: np.ndarray
    fitted_decay_rate: float
    fitted_M: float
    abscissa: float


def spectral_abscissa(gains: FeedbackGains) -> float:
    return float(np.max(np.real(np.linalg.eigvals(gains.closed_loop))))


def closed_loop_simulate(params: PhysicalParams, N: int, gains: FeedbackGains,
                         state0: ModalState, T_sim: float,
                         steps: int = 400) -> DecayReport:
    """Energy decay of the closed loop, integrated by matrix exponential
    over uniform steps; the decay rate is fitted on the tail half of the
    horizon (rate of the state norm, i.e. half the log-energy slope)."""
    import scipy.linalg
    if T_sim <= 0:
        raise ValueError("T_sim must be positive")
    table = spectrum_table(params, N)
    scale = np.sqrt(2 * np.pi * table.norm2).ravel()
    y = state0.coeffs.ravel() * scale
    dt = T_sim / steps
    step = scipy.linalg.expm(gains.closed_loop * dt)
    times = np.linspace(0.0, T_sim, steps + 1)
    energies = np.empty(steps + 1)
    e0 = float(np.vdot(y, y).real)
    norm0 = np.sqrt(e0) if e0 > 0 else 1.0
    fitted_M = 0.0
    for i in range(steps + 1):
        energies[i] = float(np.vdot(y, y).real)
        bound = np.exp(-0.9 * gains.omega_target * times[i]) * norm0
        fitted_M = max(fitted_M, np.sqrt(energies[i]) / bound)
        if i < steps:
            y = step @ y
    tail = times >= T_sim / 2
    logs = np.log(np.maximum(energies[tail], 1e-300))
    slope = np.polyfit(times[tail], logs, 1)[0]
    return DecayReport(times, energies, -slope / 2, fitted_M,
                       spectral_abscissa(gains))

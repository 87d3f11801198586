"""Pointwise feedback gains from an exponentially weighted trace Gramian.

Working in orthonormal eigen-coordinates (where the free generator is the
skew diagonal ``i omega``), the gain is the classical fast-stabilization
feedback ``K = -B^H Lambda_w^{-1}`` built from the weighted Gramian

    Lambda_w = integral_0^{Th} e^{-2 w s} e^{-sA} B B^H e^{-s A^H} ds,

whose entries are closed-form exponential integrals: the real weight shifts
each frequency difference by 2 i w (``signals._shifted_matrix``) and keeps
Lambda_w Hermitian.  One eig of the closed-loop generator and a decay-rate
fit then verify the loop.

Everything after the Gramian runs in the real-field basis: per branch,
u_k = (e_k + e_-k)/sqrt2 and v_k = i (e_k - e_-k)/sqrt2 for k > 0, and
e_0 as is, in the layout of ``spectral._to_real``: [e_0, u_k] over both
branches, then [v_k].  The swap P: k <-> -k sends omega to -omega and each
input column e^{-ikx0} Z_k to its conjugate (Z_k is real and even in k), so
P B = conj(B), P Lambda_w P = conj(Lambda_w) and, for the closed-loop
generator A, P A P = conj(A).  The basis U has conj(U) = P U, so U^H B,
U^H Lambda_w U and U^H A U are real: the Gramian solve, the free part (a
block [[0, -omega_k], [omega_k, 0]] on each pair (u_k, v_k)) and the
eigendecomposition of the closed loop all take real matrices.  U is applied
by index arithmetic over the (k, -k) pairs, never as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GramianSingular
from .modal import ModalState
from .signals import _phase, _shifted_matrix
from .spectral import (PhysicalParams, _from_real, _to_real,
                       critical_time, resonance_check, spectrum_table,
                       trace_amplitudes)

SINGULAR_REL_TOL = 1e-13
SIM_STEPS = 400


def _free_generator(omega: np.ndarray) -> np.ndarray:
    """U^H diag(i omega) U: a rotation block on each pair (u_k, v_k)."""
    n, N = len(omega), (len(omega) // 2 - 1) // 2
    # u_k at C+[b, k], v_k at C-[b, k - 1]
    p = np.arange(2 * N + 2).reshape(2, N + 1)[:, 1:].ravel()
    m = np.arange(2 * N + 2, n)
    w = omega.reshape(2, -1)[:, N + 1:].ravel()
    A = np.zeros((n, n))
    A[m, p] = w
    A[p, m] = -w
    return A


@dataclass(eq=False)
class FeedbackGains:
    """Linear feedback functionals over modal coordinates.

    ``F_row`` and ``G_row`` act on the flattened coefficient vector
    c[branch, k+N] and give the two scalar control amplitudes.
    """

    omega_target: float
    F_row: np.ndarray
    G_row: np.ndarray
    real_loop: np.ndarray     # generator in the real-field basis, U^H A U

    @cached_property
    def closed_loop(self) -> np.ndarray:
        """The generator A in orthonormal coordinates, U A_r U^H."""
        return _from_real(_from_real(self.real_loop.T).conj().T)


def _weighted_gramian(params: PhysicalParams, N: int, x0: float,
                      omega_target: float, Th: float):
    """(omega, scale, B, Lambda_w) in orthonormal coordinates y = scale * c.
    Raises ValueError when the rate or the horizon overflows Lambda_w."""
    table = spectrum_table(params, N)
    omega = table.omega.ravel()
    scale = np.sqrt(2 * np.pi * table.norm2).ravel()
    # a unit control enters mode j through conj(amps[c, j]) w_c / scale_j,
    # w = (1, ac/d)
    inputs = (np.conj(trace_amplitudes(params, N, x0))
              * [[1.0], [params.weight]] / scale)
    # entry (m, j) is e^{-i omega_m h} k[m, j] e^{i omega_j h}, h = Th / 2,
    # times sum_c inputs[c, m] conj(inputs[c, j]): the phases go onto the
    # inputs, whose products leave the diagonal not exactly real
    with np.errstate(over="ignore", invalid="ignore"):
        cis = _phase(omega, Th / 2)
        lam = _shifted_matrix(omega, Th / 2, omega_target, cis)
        lam *= sum(np.outer(a, np.conj(a)) for a in inputs * np.conj(cis))
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"rate {omega_target:g} and horizon Th={Th:g} "
                         "overflow the weighted Gramian")
    return omega, scale, inputs.T, (lam + lam.conj().T) / 2


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
    return FeedbackGains(omega_target, K[0], K[1],
                         _free_generator(omega) + B_r @ K_r)


def zero_gains(params: PhysicalParams, N: int) -> FeedbackGains:
    """Open-loop reference: zero feedback, conservative dynamics."""
    omega = spectrum_table(params, N).omega.ravel()
    F_row, G_row = np.zeros((2, len(omega)), dtype=complex)
    return FeedbackGains(0.0, F_row, G_row, _free_generator(omega))


@dataclass(eq=False)
class DecayReport:
    times: np.ndarray
    energies: np.ndarray
    fitted_decay_rate: float
    fitted_M: float
    abscissa: float


def closed_loop_simulate(params: PhysicalParams, N: int, gains: FeedbackGains,
                         state0: ModalState, T_sim: float) -> DecayReport:
    """Energy decay of the closed loop from a nonzero state z = U^H y at
    SIM_STEPS uniform steps, z(t) = V e^{lambda t} V^-1 z, and its rate: half
    the log-energy slope on the tail half of the horizon, or of its part
    before the energy underflows, or through the last two normal energies
    when that half holds fewer (ValueError if there are fewer).  V and lambda
    come from the one eig of the real generator that also gives the abscissa."""
    tiny = np.finfo(float).tiny
    # np.polyfit divides the times by their root-sum-square, which must
    # stay a normal float
    if not T_sim >= np.sqrt(tiny):
        raise ValueError(f"T_sim must be at least {np.sqrt(tiny):.2g}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = _to_real(state0.coeffs.ravel() * np.sqrt(
            2 * np.pi * spectrum_table(params, N).norm2).ravel())
        if not 0 < np.vdot(z, z).real < np.inf:
            raise ValueError("initial state has zero energy or overflows; "
                             "no decay to fit")
        vals, vecs = np.linalg.eig(gains.real_loop)
        # rows e^{lambda t_i} V^-1 z by a running product: cheaper than
        # direct exponentials of the large phases; complex even when eig
        # returns reals
        modes = np.empty((SIM_STEPS + 1, len(z)), dtype=complex)
        modes[0] = np.linalg.solve(vecs, z)
        modes[1:] = np.exp(vals * (T_sim / SIM_STEPS))
        states = np.cumprod(modes, axis=0, out=modes) @ vecs.T
        states[0] = z  # not V V^-1 z, which is off by eps cond(V)
        energies = np.sum(states.real ** 2 + states.imag ** 2, axis=1)
    if not np.all(np.isfinite(energies)):
        raise ValueError("the energy of the closed loop overflows")
    times = np.linspace(0.0, T_sim, SIM_STEPS + 1)
    norm0 = np.sqrt(energies[0])
    # the overshoot over e^{-0.9 w t} in logs, where neither factor
    # underflows on long horizons; an energy of 0 gives -inf and bounds
    # nothing
    with np.errstate(divide="ignore"):
        excess = 0.5 * np.log(energies) + 0.9 * gains.omega_target * times
    fitted_M = float(np.exp(np.max(excess) - np.log(norm0)))
    # the fit runs over the span whose energies are normal floats: past it
    # they underflow, and the logs of clipped values flatten the slope
    normal = np.flatnonzero(energies >= tiny)
    if normal.size < 2:
        raise ValueError("the energy underflows within one step; no decay "
                         "rate to fit, shorten T_sim")
    end = times[normal[-1]]
    tail = np.flatnonzero((times >= end / 2) & (times <= end))
    if tail.size < 2:
        tail = normal[-2:]
    logs = np.log(np.maximum(energies[tail], tiny))
    slope = np.polyfit(times[tail], logs, 1)[0]
    return DecayReport(times, energies, -slope / 2, fitted_M,
                       float(np.max(vals.real)))

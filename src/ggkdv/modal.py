"""States in the eigenbasis and their free, forced and adjoint evolution.

A state is stored as the complex coefficient array c[branch, k+N] of the
expansion ``(u,v)(x) = sum_k (c_k^+ Z_k^+ + c_k^- Z_k^-) e^{ikx}``.  Free
evolution is a diagonal phase, Dirac-forced evolution integrates Duhamel
terms in closed form, and pointwise traces come out as exponential sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasError
from .signals import (ExponentialSignal, _integrate, _phase, _signals,
                      stack_terms)
from .spectral import PhysicalParams, spectrum_table, trace_amplitudes


@dataclass(eq=False)
class ModalState:
    """Coefficients c_k^{+-} of a truncated state, shape (2, 2N+1)."""

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (2, 2 * self.N + 1):
            raise ValueError("coefficient array must have shape (2, 2N+1)")

    @staticmethod
    def zeros(N: int) -> "ModalState":
        return ModalState(N, np.zeros((2, 2 * N + 1), dtype=complex))

    @staticmethod
    def random(N: int, rng: np.random.Generator, real_field: bool = False) -> "ModalState":
        c = rng.standard_normal((2, 2 * N + 1)) + 1j * rng.standard_normal((2, 2 * N + 1))
        if real_field:
            c = (c + np.conj(c[:, ::-1])) / 2
        return ModalState(N, c)

    def copy(self) -> "ModalState":
        return ModalState(self.N, self.coeffs.copy())

    def __add__(self, other: "ModalState") -> "ModalState":
        return ModalState(self.N, self.coeffs + other.coeffs)

    def __sub__(self, other: "ModalState") -> "ModalState":
        return ModalState(self.N, self.coeffs - other.coeffs)

    def scaled(self, factor: complex) -> "ModalState":
        return ModalState(self.N, self.coeffs * factor)


@dataclass(eq=False)
class GridFunction:
    """(u, v) sampled at M uniform circle points x_j = 2 pi j / M."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=complex)
        self.v = np.asarray(self.v, dtype=complex)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ValueError("u and v must be 1-d arrays of equal length")

    @property
    def M(self) -> int:
        return len(self.u)


def _fourier_coeffs(samples: np.ndarray, N: int) -> np.ndarray:
    """Coefficients hat{w}_k, |k| <= N, of w(x) = sum hat{w}_k e^{ikx}."""
    M = len(samples)
    spec = np.fft.fft(samples) / M
    return spec[np.arange(-N, N + 1) % M]


def project(params: PhysicalParams, N: int, fields: GridFunction) -> ModalState:
    """Discrete transform followed by the weighted eigen-decomposition."""
    if fields.M < 2 * N + 2:
        raise AliasError(f"need M >= {2 * N + 2} samples for truncation N={N}")
    table = spectrum_table(params, N)
    uv = np.stack([_fourier_coeffs(fields.u, N), _fourier_coeffs(fields.v, N)])
    w = params.weight
    # c^{+-} = <(u_k, v_k), Z^{+-}>_w / ||Z^{+-}||_w^2 with real Z
    coeffs = (table.z[:, :, 0] * uv[0] + w * table.z[:, :, 1] * uv[1]) / table.norm2
    return ModalState(N, coeffs)


def modal_uv(params: PhysicalParams, state: ModalState) -> np.ndarray:
    """Fourier coefficients (hat u_k, hat v_k), shape (2, 2N+1)."""
    table = spectrum_table(params, state.N)
    return np.einsum("bkj,bk->jk", table.z, state.coeffs)


def reconstruct(params: PhysicalParams, state: ModalState, M: int) -> GridFunction:
    """Inverse discrete transform of the modal expansion."""
    N = state.N
    if M < 2 * N + 2:
        raise AliasError(f"need M >= {2 * N + 2} samples for truncation N={N}")
    spec = np.zeros((2, M), dtype=complex)
    spec[:, np.arange(-N, N + 1) % M] = modal_uv(params, state)
    return GridFunction(np.fft.ifft(spec[0]) * M, np.fft.ifft(spec[1]) * M)


def evolve(params: PhysicalParams, state: ModalState, t: float) -> ModalState:
    """Free flow: diagonal phases e^{i omega t} in the eigenbasis, exact
    at any |omega t| (``signals._phase``)."""
    table = spectrum_table(params, state.N)
    return ModalState(state.N, state.coeffs * _phase(table.omega, t))


def energy(params: PhysicalParams, state: ModalState) -> float:
    """The conserved quantity ``integral |u|^2 + (ac/d) |v|^2 dx``."""
    table = spectrum_table(params, state.N)
    return float(2 * np.pi * np.sum(np.abs(state.coeffs) ** 2 * table.norm2))


def h_norm(params: PhysicalParams, state: ModalState) -> float:
    return float(np.sqrt(energy(params, state)))


def _mean(params: PhysicalParams, state: ModalState, channel: int) -> complex:
    """2 pi times the k = 0 Fourier coefficient of channel (u, v)."""
    z, c, k0 = spectrum_table(params, state.N).z, state.coeffs, state.N
    return 2 * np.pi * complex(c[0, k0] * z[0, k0, channel]
                               + c[1, k0] * z[1, k0, channel])


def u_mean(params: PhysicalParams, state: ModalState) -> complex:
    """``integral u dx`` = 2 pi * hat{u}_0; conserved when f is absent."""
    return _mean(params, state, 0)


def v_mean(params: PhysicalParams, state: ModalState) -> complex:
    return _mean(params, state, 1)


def trace(params: PhysicalParams, state: ModalState, x0: float,
          adjoint: bool = False):
    """Pointwise traces (u(., x0), v(., x0)), or (phi(., x0), psi(., x0)) of
    an adjoint-basis state when ``adjoint``, as exponential sums; the terms
    of the k=0 pair's coinciding frequencies merge by amplitude addition."""
    amps = trace_amplitudes(params, state.N, x0, adjoint) * state.coeffs.ravel()
    omega = spectrum_table(params, state.N).omega.ravel()
    return tuple(_signals(amps, omega))


def forced_evolve(params: PhysicalParams, N: int, state0: ModalState,
                  f: ExponentialSignal | None, g: ExponentialSignal | None,
                  x0: float, T: float) -> ModalState:
    """Evolution under Dirac forcings ``f(t) delta_{x0}`` (u-equation) and
    ``g(t) delta_{x0}`` (v-equation) over [0, T], T of either sign.

    Per mode the forcing is decomposed onto the eigenbasis and each Duhamel
    integral ``integral_0^T e^{i omega (T-s)} e^{i mu s} ds`` is evaluated in
    closed form, as ``e^{i (omega + mu) T/2} K_h(mu - omega)`` with the real
    centred kernel K_h, h = T/2
    (``signals._integrate``); both controls share one kernel row per
    frequency.  With both controls absent this reduces to the free flow.
    """
    if state0.N != N:
        raise ValueError("state truncation does not match N")
    table = spectrum_table(params, N)
    phase = _phase(table.omega, T)
    out = ModalState(N, state0.coeffs * phase)
    # a unit input in channel c enters mode j through conj(amps[c, j]) w_c,
    # with the energy weights w = (1, ac/d) of the u and v equations
    inputs = np.conj(trace_amplitudes(params, N, x0)) * [[1.0], [params.weight]]
    channels = [(sig, row) for sig, row in zip((f, g), inputs) if sig]
    if not channels:
        return out
    amps, freqs = stack_terms([sig for sig, _ in channels])
    integ = _integrate(amps, freqs, 0.0, T, -table.omega.ravel())
    base = (phase / (2 * np.pi * table.norm2)).ravel()
    for (_, inp), row in zip(channels, integ):
        out.coeffs += (inp * base * row).reshape(2, -1)
    return out

"""Duality-based control synthesis in adjoint eigen-coordinates.

The control operator is assembled as the Gram matrix of the adjoint
pointwise traces, so every entry is a closed-form exponential integral.
Steering between arbitrary states reduces to a null-control solve of the
defect ``initial - free-backward-evolved target`` against that matrix;
controls come out as exponential sums built from the adjoint solution.
The solves factor the real symmetric R of ``Lambda = D R D^H``, D a
diagonal of phases, on the complement of D v in single-control modes, v the
structural k=0 kernel direction, and refine against the complex Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolation, IllConditioned
from .gram import trace_gram
from .modal import (ModalState, adjoint_trace, energy, evolve, forced_evolve,
                    h_norm, modal_uv, u_mean, v_mean)
from .signals import ExponentialSignal, exp_kernel, stack_terms
from .spectral import PhysicalParams, spectrum_table, trace_amplitudes

COND_LIMIT = 1e14
# Largest accepted a-priori estimate eps * lambda_max * |s| / |rhs| of the
# relative round-trip error of a solve (the tightest round-trip tolerance
# in use is 1e-8).
ERROR_EST_LIMIT = 1e-8
MEAN_TOL = 1e-10
# observed adjoint trace channels (phi = 0, psi = 1) per control mode
_CHANNELS = {"both": [0, 1], "f_only": [0], "g_only": [1]}


@dataclass(frozen=True, eq=False)
class _Factorization:
    """What every solve against one system shares: the real
    ``R + sigma v v^T``, completed along the unit kernel direction v of
    single modes (v = 0 in mode both)."""

    phases: np.ndarray         # the diagonal of D
    kernel: np.ndarray         # v
    vals: np.ndarray           # eigenvalues of the completed R, ascending
    cond: float
    cho: tuple | None          # its Cholesky factor; None when ill-conditioned
    matrix_hi: np.ndarray | None  # Lambda in extended precision

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """D^H x without its v component."""
        y = np.conj(self.phases) * x
        return y - self.kernel * (self.kernel @ y)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """D R^+ D^H b on the complement of D v, as two real right-hand
        sides."""
        import scipy.linalg
        z, _ = scipy.linalg.lapack.dpotrs(
            self.cho[0], self.reduce(b).view(float).reshape(-1, 2),
            lower=self.cho[1])
        return self.phases * (z[:, 0] + 1j * z[:, 1])


@dataclass(eq=False)
class HumSystem:
    """The control operator in adjoint eigen-coordinates.

    x0 and the horizon's centre enter ``matrix`` only through the phases
    ``D = diag(e^{i(k x0 + omega T/2)})``: ``Lambda = D R D^H``, R real
    symmetric.  The eigenvalues and the Cholesky factor of R (completed
    along the kernel direction in single modes) used by ``solve_control``
    are computed once, on first use; ``matrix`` must not change after
    that.
    """

    params: PhysicalParams
    N: int
    x0: float
    T: float
    mode: str                  # both | f_only | g_only
    labels: tuple
    matrix: np.ndarray         # Hermitian PSD
    constraint: np.ndarray | None  # unit kernel direction for single modes

    def eigvals(self) -> np.ndarray:
        """Eigenvalues of ``matrix`` (read-only)."""
        if self.constraint is None:
            return self._factorization.vals
        return self._full_eigvals

    def condition_number(self) -> float:
        """Condition number of the operator solved: on the complement of
        the structural kernel direction in single modes."""
        return self._factorization.cond

    def _real_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(phases, R): the diagonal of D, and R = Re(D^H Lambda D)."""
        table = spectrum_table(self.params, self.N)
        phases = np.exp(1j * (np.tile(table.ks, 2) * self.x0
                              + table.omega.ravel() * (self.T / 2)))
        R = (np.conj(phases)[:, None] * self.matrix * phases).real
        return phases, (R + R.T) / 2

    @cached_property
    def _full_eigvals(self) -> np.ndarray:
        import scipy.linalg
        return _read_only(scipy.linalg.eigvalsh(self._real_form()[1]))

    @cached_property
    def _factorization(self) -> _Factorization:
        import scipy.linalg
        phases, R = self._real_form()
        n = len(R)
        v = np.zeros(n) if self.constraint is None else self.constraint
        # R's k=0 columns are equal or opposite, so R v = 0 and the
        # completion's eigenvalue sigma, the mean of the others, keeps the
        # extremes, the condition number and the solve on the complement
        R += np.trace(R) / (n - 1) * np.outer(v, v)
        vals = _read_only(scipy.linalg.eigvalsh(R))
        cond = np.inf if vals[0] <= 0 else float(vals[-1] / vals[0])
        cho = None
        if cond <= COND_LIMIT:
            try:
                cho = scipy.linalg.cho_factor(R)
            except np.linalg.LinAlgError:
                cond = np.inf
        hi = None if cho is None else self.matrix.astype(np.clongdouble)
        return _Factorization(phases, v, vals, cond, cho, hi)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class ControlPlan:
    f: ExponentialSignal | None
    g: ExponentialSignal | None
    x0: float
    T: float
    adjoint_seed: np.ndarray   # seed coefficients xi over the adjoint labels
    labels: tuple
    # a-priori estimate of the relative round-trip error of the solve
    error_estimate: float | None = None


def _kernel_direction(N: int, mode: str) -> np.ndarray | None:
    """Unit structural unobservable adjoint direction at k=0 in single
    modes: the phi-trace 2d(q+ + q-) vanishes on q+ = -q-, the psi-trace
    sqrt(4acd)(q+ - q-) on q+ = q-."""
    if mode == "both":
        return None
    v = np.zeros(2 * (2 * N + 1))
    v[[N, 3 * N + 1]] = np.array([1.0, -1.0 if mode == "f_only" else 1.0]) \
        / np.sqrt(2)
    return v


def assemble_lambda(params: PhysicalParams, N: int, x0: float, T: float,
                    mode: str = "both") -> HumSystem:
    """Gram matrix of the adjoint traces observed over [0, T].

    The quadratic form of a seed equals ``integral_0^T`` of the squared
    observed adjoint traces; in single-control modes only the matching
    trace contributes and the structural k=0 kernel direction is recorded.
    Raises ValueError for a horizon at which the closed forms overflow.
    """
    if mode not in _CHANNELS:
        raise ValueError(f"unknown mode {mode!r}")
    if not T > 0:
        raise ValueError("horizon must be positive")
    table = spectrum_table(params, N)
    amps = trace_amplitudes(params, N, x0, adjoint=True)[_CHANNELS[mode]]
    with np.errstate(over="ignore", invalid="ignore"):
        lam = trace_gram(amps, table.omega.ravel(), 0.0, T)
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"horizon T={T:g} overflows the control operator")
    return HumSystem(params, N, x0, T, mode, table.labels, lam,
                     _kernel_direction(N, mode))


def _refined_solve(fac: _Factorization, b: np.ndarray) -> np.ndarray:
    """Solve of ``Lambda s = b`` on the complement of D v, refined in mixed
    precision: corrections from the double real factor, residuals in
    extended precision against the complex Lambda over [0, T] (the closed
    forms ``forced_evolve`` shares), so the refinement converges even when
    the condition number approaches 1/eps (windows near the critical time).
    """
    b_hi = b.astype(np.clongdouble)
    x = fac.solve(b).astype(np.clongdouble)
    for _ in range(6):
        r = b_hi - fac.matrix_hi @ x
        corr = fac.solve(r.astype(complex))
        x = x + corr
        if np.linalg.norm(corr) <= 1e-16 * np.linalg.norm(x.astype(complex)):
            break
    return x.astype(complex)


def _duality_rhs(params: PhysicalParams, defect: ModalState) -> np.ndarray:
    """rhs_(n,b) = 2 pi (hat{u}_{-n} zt_{n,1}^b + hat{v}_{-n} zt_{n,2}^b)."""
    N = defect.N
    table = spectrum_table(params, N)
    uv = modal_uv(params, defect)
    uv_rev = uv[:, ::-1]  # index n -> hat at -n
    rhs = 2 * np.pi * (table.zt[:, :, 0] * uv_rev[0]
                       + table.zt[:, :, 1] * uv_rev[1])
    return rhs.ravel()


def solve_control(params: PhysicalParams, N: int, x0: float, T: float,
                  initial: ModalState, target: ModalState,
                  mode: str = "both",
                  system: HumSystem | None = None) -> ControlPlan:
    """Controls steering ``initial`` to ``target`` over [0, T].

    Reduces to null control of the defect against the trace Gram.  Single
    control modes require matching conserved means and solve on the
    orthogonal complement of the structural kernel direction.  Raises
    IllConditioned when the solved operator's condition number exceeds
    COND_LIMIT, or when the estimated relative round-trip error of the
    solve, ``eps * lambda_max * |s| / |rhs|``, exceeds ERROR_EST_LIMIT.
    """
    scale = max(h_norm(params, initial), h_norm(params, target), 1.0)
    if mode == "g_only":
        if abs(u_mean(params, initial) - u_mean(params, target)) > MEAN_TOL * scale:
            raise ConstraintViolation(
                "g-only control requires equal u-means of initial and target")
    elif mode == "f_only":
        if abs(v_mean(params, initial) - v_mean(params, target)) > MEAN_TOL * scale:
            raise ConstraintViolation(
                "f-only control requires equal v-means of initial and target")

    if system is None:
        system = assemble_lambda(params, N, x0, T, mode)
    defect = initial - evolve(params, target, -T)
    rhs = _duality_rhs(params, defect)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("initial and target states must be finite")

    fac = system._factorization
    what = "control operator" if system.constraint is None else \
        "restricted control operator"
    if fac.cho is None:
        raise IllConditioned(
            f"{what} condition number exceeds 1e14; increase T or reduce N",
            condition_number=fac.cond, alpha_estimate=float(fac.vals[0]))
    s = _refined_solve(fac, rhs)
    rhs_norm = np.linalg.norm(fac.reduce(rhs))
    est = 0.0 if rhs_norm == 0 else float(
        np.finfo(float).eps * fac.vals[-1] * np.linalg.norm(s) / rhs_norm)
    if est > ERROR_EST_LIMIT:
        raise IllConditioned(
            f"{what} (condition number {fac.cond:.1e}) gives an estimated "
            f"round-trip error {est:.1e} above {ERROR_EST_LIMIT:g} for this "
            "data; increase T or steer between states the controls reach "
            "at moderate cost",
            condition_number=fac.cond, alpha_estimate=float(fac.vals[0]))

    # f = -conj(phi(., x0)), g = -conj(psi(., x0)) of the adjoint solution
    # seeded with conj(s)
    seed = np.conj(s)
    phi, psi = adjoint_trace(params, ModalState(N, seed.reshape(2, -1)), x0)
    f = phi.conjugate().scaled(-1) if mode != "g_only" else None
    g = psi.conjugate().scaled(-1) if mode != "f_only" else None
    return ControlPlan(f, g, x0, T, seed, system.labels, est)


def reachable_defect(params: PhysicalParams, N: int, x0: float, T: float,
                     mode: str, seed_coeffs: np.ndarray,
                     system: HumSystem | None = None) -> ModalState:
    """State whose null-control problem has the given adjoint seed.

    Applies the trace Gram to ``seed_coeffs`` and inverts the (per-mode,
    well-conditioned) duality map back to a modal state.  Steering data
    built from an O(1) seed keeps the control amplitudes moderate even
    when the window is shorter than the Ingham threshold of the trace
    frequencies, where generic data would need controls of size 1/alpha.
    The result automatically satisfies the conserved-mean constraint of
    single-control modes because the Gram range excludes the structural
    kernel direction.
    """
    if system is None:
        system = assemble_lambda(params, N, x0, T, mode)
    rhs = (system.matrix @ np.asarray(seed_coeffs, dtype=complex))
    table = spectrum_table(params, N)
    rhs2 = rhs.reshape(2, 2 * N + 1) / (2 * np.pi)
    # per column k: zt[:, k, :] (hat u_{-k}, hat v_{-k}) = rhs2[:, k]
    uv_rev = np.linalg.solve(table.zt.transpose(1, 0, 2), rhs2.T[:, :, None])
    uv = uv_rev[::-1, :, 0].T
    w = params.weight
    coeffs = (table.z[:, :, 0] * uv[0]
              + w * table.z[:, :, 1] * uv[1]) / table.norm2
    return ModalState(N, coeffs)


def verify_roundtrip(params: PhysicalParams, N: int, plan: ControlPlan,
                     initial: ModalState, target: ModalState) -> float:
    """Relative H-error of the controlled trajectory at time T."""
    final = forced_evolve(params, N, initial, plan.f, plan.g, plan.x0, plan.T)
    err = h_norm(params, final - target)
    return err / max(h_norm(params, target), h_norm(params, initial), 1.0)


def control_cost(plan: ControlPlan) -> float:
    """``integral_0^T |f|^2 + |g|^2 dt`` of the plan's controls."""
    signals = [sig for sig in (plan.f, plan.g) if sig]
    if not signals:
        return 0.0
    amps, freqs, degrees = stack_terms(signals)
    kernel_amps = exp_kernel(freqs, -freqs, 0.0, plan.T, degrees, degrees,
                             left=amps)
    return float(np.real(np.sum(kernel_amps * np.conj(amps))))


def bilinear_pairing(params: PhysicalParams, state: ModalState,
                     adjoint_state: ModalState) -> complex:
    """``integral u phi + v psi dx`` = 2 pi sum_k (u_k phi_{-k} + v_k psi_{-k});
    the pairing conserved by the mutually dual free flows."""
    from .modal import adjoint_modal_uv
    uv = modal_uv(params, state)
    pq = adjoint_modal_uv(params, adjoint_state)
    pq_rev = pq[:, ::-1]
    return 2 * np.pi * complex(np.sum(uv[0] * pq_rev[0] + uv[1] * pq_rev[1]))


def duality_residual(params: PhysicalParams, N: int,
                     f: ExponentialSignal | None,
                     g: ExponentialSignal | None, x0: float,
                     initial: ModalState, adjoint_seed: ModalState,
                     T: float) -> float:
    """Relative defect of the transposition identity: the pairing of the
    controlled state with the adjoint solution at T equals its value at 0
    plus the directed time integral of (f, g) against the adjoint traces."""
    final = forced_evolve(params, N, initial, f, g, x0, T)
    adj_final = evolve(params, adjoint_seed, T)
    lhs = bilinear_pairing(params, final, adj_final)
    phi_sig, psi_sig = adjoint_trace(params, adjoint_seed, x0)
    rhs = bilinear_pairing(params, initial, adjoint_seed)
    if f:
        rhs += f.bilinear_integral(phi_sig, 0.0, T)
    if g:
        rhs += g.bilinear_integral(psi_sig, 0.0, T)
    scale = max(abs(lhs), abs(rhs),
                energy(params, initial), energy(params, adjoint_seed), 1.0)
    return abs(lhs - rhs) / scale

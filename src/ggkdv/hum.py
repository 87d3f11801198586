"""Duality-based control synthesis in adjoint eigen-coordinates.

The control operator is assembled as the Gram matrix of the adjoint
pointwise traces, so every entry is a closed-form exponential integral.
Steering between arbitrary states reduces to a null-control solve of the
defect ``initial - free-backward-evolved target`` against that matrix;
controls come out as exponential sums built from the adjoint solution.
Up to a diagonal of phases the matrix is the real observation form, so the
solves use observe's eigensolve of its two parity blocks, ``gram._block_eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolation, IllConditioned
from .gram import _block_eigh, _parity_blocks
from .modal import (ModalState, energy, evolve, forced_evolve, h_norm, trace,
                    u_mean, v_mean)
from .signals import ExponentialSignal, exp_kernel, total_l2_norm_sq
from .spectral import (PhysicalParams, _from_real, _to_real, mode_phases,
                       spectrum_table, trace_amplitudes)

COND_LIMIT = 1e14
# Largest accepted a-priori estimate eps * lambda_max * |s| / |rhs| of the
# relative round-trip error of a solve (the tightest round-trip tolerance
# in use is 1e-8).
ERROR_EST_LIMIT = 1e-8
MEAN_TOL = 1e-10
# observed adjoint trace channels (phi = 0, psi = 1) per control mode
_CHANNELS = {"both": [0, 1], "f_only": [0], "g_only": [1]}


@dataclass(eq=False)
class HumSystem:
    """The control operator in adjoint eigen-coordinates.

    x0 and the horizon's centre enter ``matrix`` only through the phases
    ``D = diag(e^{i(k x0 + omega T/2)})``: ``Lambda = D R D^H``, R the real
    form of the amplitude ``rows`` over [-T/2, T/2], whose parity blocks
    (``gram._parity_blocks``) are solved, C+ completed along the unit kernel
    direction v of single modes to ``C+ + sigma v v^T``.  Their eigenvalues
    and, below COND_LIMIT, ``W = D U blkdiag(V+, V-)`` are computed once.
    """

    matrix: np.ndarray         # Hermitian PSD
    phases: np.ndarray         # the diagonal of D
    constraint: np.ndarray | None  # v: unit kernel direction, single modes
    rows: np.ndarray           # observed adjoint amplitudes at x0 = 0, real
    omega: np.ndarray          # frequencies over (branch, k)
    params: PhysicalParams     # the problem it was assembled for: params,
    x0: float                  # x0, T, mode and N, by the size of matrix
    T: float
    mode: str

    def eigvals(self) -> np.ndarray:
        """Eigenvalues of ``matrix`` (read-only): in single modes, the
        completion's with its eigenvalue sigma, their mean, set to 0."""
        vals = self._factor[0]
        if self.constraint is None:
            return vals
        at_sigma = np.argmin(np.abs(vals - np.mean(vals)))
        return _read_only(np.sort(np.r_[0.0, np.delete(vals, at_sigma)]))

    def condition_number(self) -> float:
        """Condition number of the operator solved: on the complement of
        the structural kernel direction in single modes."""
        return self._factor[1]

    @cached_property
    def _factor(self) -> tuple:
        """(vals, cond, W, matrix_hi): the completed blocks' ascending
        eigenvalues, their condition number, W (columns in their order) and
        Lambda in extended precision, the last two None above COND_LIMIT."""
        plus, minus = _parity_blocks(self.rows, self.omega, self.T / 2)
        v = self.constraint
        if v is not None:
            # C+ v = 0 (equal or opposite k=0 columns); sigma, the mean of
            # the other eigenvalues, keeps the extremes and the complement
            v = _to_real(v)[:len(plus)].real
            sigma = (np.trace(plus) + np.trace(minus)) / (len(self.matrix) - 1)
            plus += sigma * np.outer(v, v)
        vals, vecs = _block_eigh(plus, minus)
        vals = _read_only(vals)
        cond = np.inf if vals[0] <= 0 else float(vals[-1] / vals[0])
        if cond > COND_LIMIT:
            return vals, cond, None, None
        W = self.phases[:, None] * _from_real(vecs)
        return vals, cond, W, self.matrix.astype(np.clongdouble)

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        """x without its D v component; D is 1 at k=0, so D v = v."""
        v = self.constraint
        return x if v is None else x - v * (v @ x)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """``W (W^H b / vals)`` on the complement of D v."""
        vals, _, W, _ = self._factor
        return W @ (np.conj(np.conj(self._reduce(b)) @ W) / vals)

    def _refined_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve of ``Lambda s = b`` on the complement of D v, refined in
        mixed precision: corrections from W, residuals in extended precision
        against the complex Lambda over [0, T] (the closed forms
        ``forced_evolve`` shares), so the refinement converges even when the
        condition number approaches 1/eps (windows near the critical time).
        At most 6 corrections; it stops after one at most max(1e-16, cond
        eps_ld) |x|, the rounding noise of the residual in long double
        (eps_ld), or after one above half the previous: the corrections
        have then reached the rounding noise and no longer shrink."""
        b_hi = b.astype(np.clongdouble)
        x = self._solve(b).astype(np.clongdouble)
        noise = max(1e-16, self._factor[1] * np.finfo(np.longdouble).eps)
        last = np.inf
        for _ in range(6):
            r = b_hi - self._factor[3] @ x
            corr = self._solve(r.astype(complex))
            size = np.linalg.norm(corr)
            x = x + corr
            if size <= noise * np.linalg.norm(x.astype(complex)) \
                    or size > last / 2:
                break
            last = size
        return x.astype(complex)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class ControlPlan:
    f: ExponentialSignal | None
    g: ExponentialSignal | None
    x0: float
    T: float
    adjoint_seed: np.ndarray   # seed coefficients xi over (branch, k)
    # a-priori estimate of the relative round-trip error of the solve
    error_estimate: float | None = None


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
    omega = table.omega.ravel()
    amps = trace_amplitudes(params, N, x0, adjoint=True)[_CHANNELS[mode]]
    # the Hermitian kernel times sum_c a_c a_c^H, symmetrized: with fused
    # multiply-adds that sum's diagonal keeps imaginary parts of ~eps
    with np.errstate(over="ignore", invalid="ignore"):
        lam = exp_kernel(omega, None, 0.0, T)
        lam *= sum(np.outer(a, np.conj(a)) for a in amps)
        lam = (lam + lam.conj().T) / 2
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"horizon T={T:g} overflows the control operator")
    phases = mode_phases(table, x0, T / 2).ravel()
    rows = trace_amplitudes(params, N, 0.0, adjoint=True).real[_CHANNELS[mode]]
    v = None
    if mode != "both":
        # the phi-trace 2d(q+ + q-) vanishes on q+ = -q-, the psi-trace
        # sqrt(4acd)(q+ - q-) on q+ = q-
        v = np.zeros(len(omega))
        sign = -1.0 if mode == "f_only" else 1.0
        v[[N, 3 * N + 1]] = np.array([1.0, sign]) / np.sqrt(2)
    return HumSystem(lam, phases, v, rows, omega, params, x0, T, mode)


def _checked(system: HumSystem | None, params, N, x0, T, mode) -> HumSystem:
    """``system`` (new if None); ValueError if built for another problem."""
    if system is not None and (
            system.params, len(system.matrix), system.x0, system.T,
            system.mode) != (params, 2 * (2 * N + 1), x0, T, mode):
        raise ValueError("system was assembled for another problem")
    return assemble_lambda(params, N, x0, T, mode) if system is None else system


def _duality_rhs(params: PhysicalParams, state: ModalState) -> np.ndarray:
    """rhs_(n,b) = 2 pi ||Z_n^b||_w^2 / w c^b_{-n}, w = ac/d.

    This is 2 pi (hat{u}_{-n} zt_{n,1}^b + hat{v}_{-n} zt_{n,2}^b): the
    adjoint eigenvectors are biorthogonal to the forward ones,
    Zt^b . Z^b' = delta_bb' ||Z^b||_w^2 / w, and Z is even in k."""
    table = spectrum_table(params, state.N)
    return (2 * np.pi * table.norm2 / params.weight
            * state.coeffs[:, ::-1]).ravel()


def solve_control(params: PhysicalParams, N: int, x0: float, T: float,
                  initial: ModalState, target: ModalState,
                  mode: str = "both",
                  system: HumSystem | None = None) -> ControlPlan:
    """Controls steering ``initial`` to ``target`` over [0, T].

    Reduces to null control of the defect against the trace Gram.  Single
    control modes require equal conserved means and solve on the complement
    of the structural kernel direction.  Raises ValueError for a ``system``
    assembled for another problem, IllConditioned when the solved operator's
    condition number exceeds COND_LIMIT or the estimated relative round-trip
    error of the solve, ``eps * lambda_max * |s| / |rhs|``, ERROR_EST_LIMIT.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = h_norm(params, initial), h_norm(params, target)
    if not all(map(math.isfinite, norms)):
        raise ValueError("initial and target states must have finite energy")
    scale = max(*norms, 1.0)
    if mode == "g_only":
        if abs(u_mean(params, initial) - u_mean(params, target)) > MEAN_TOL * scale:
            raise ConstraintViolation(
                "g-only control requires equal u-means of initial and target")
    elif mode == "f_only":
        if abs(v_mean(params, initial) - v_mean(params, target)) > MEAN_TOL * scale:
            raise ConstraintViolation(
                "f-only control requires equal v-means of initial and target")

    system = _checked(system, params, N, x0, T, mode)
    defect = initial - evolve(params, target, -T)
    rhs = _duality_rhs(params, defect)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("initial and target states must be finite")

    vals, cond, W, _ = system._factor
    what = "control operator" if system.constraint is None else \
        "restricted control operator"
    if W is None:
        raise IllConditioned(
            f"{what} condition number exceeds 1e14; increase T or reduce N",
            condition_number=cond, alpha_estimate=float(vals[0]))
    s = system._refined_solve(rhs)
    rhs_norm = np.linalg.norm(system._reduce(rhs))
    est = 0.0 if rhs_norm == 0 else float(
        np.finfo(float).eps * vals[-1] * np.linalg.norm(s) / rhs_norm)
    if est > ERROR_EST_LIMIT:
        raise IllConditioned(
            f"{what} (condition number {cond:.1e}) gives an estimated "
            f"round-trip error {est:.1e} above {ERROR_EST_LIMIT:g} for this "
            "data; increase T or steer between states the controls reach "
            "at moderate cost",
            condition_number=cond, alpha_estimate=float(vals[0]))

    # f = -conj(phi(., x0)), g = -conj(psi(., x0)) of the adjoint solution
    # seeded with conj(s): amplitudes -conj(amps) s at the frequencies -omega
    rows = -np.conj(trace_amplitudes(params, N, x0, adjoint=True)) * s
    used = (mode != "g_only", mode != "f_only")
    f, g = (ExponentialSignal.from_terms(zip(row, -system.omega, [0] * len(s)))
            if use else None for row, use in zip(rows, used))
    return ControlPlan(f, g, x0, T, np.conj(s), est)


def reachable_defect(params: PhysicalParams, N: int, x0: float, T: float,
                     mode: str, seed_coeffs: np.ndarray,
                     system: HumSystem | None = None) -> ModalState:
    """State whose null-control problem has the given adjoint seed.

    Applies the trace Gram to ``seed_coeffs`` and divides by the diagonal
    weights 2 pi ||Z||_w^2 / w of the duality map, with k reversed.  Steering
    data built from an O(1) seed keeps the control amplitudes moderate even
    when the window is shorter than the Ingham threshold of the trace
    frequencies, where generic data would need controls of size 1/alpha.
    The result automatically satisfies the conserved-mean constraint of
    single-control modes because the Gram range excludes the structural
    kernel direction.  A ``system`` for another problem raises ValueError.
    """
    system = _checked(system, params, N, x0, T, mode)
    rhs = system.matrix @ np.asarray(seed_coeffs, dtype=complex)
    table = spectrum_table(params, N)
    weights = 2 * np.pi * table.norm2 / params.weight
    return ModalState(N, rhs.reshape(2, -1)[:, ::-1] / weights)


def verify_roundtrip(params: PhysicalParams, N: int, plan: ControlPlan,
                     initial: ModalState, target: ModalState) -> float:
    """Relative H-error of the controlled trajectory at time T."""
    final = forced_evolve(params, N, initial, plan.f, plan.g, plan.x0, plan.T)
    err = h_norm(params, final - target)
    return err / max(h_norm(params, target), h_norm(params, initial), 1.0)


def control_cost(plan: ControlPlan) -> float:
    """``integral_0^T |f|^2 + |g|^2 dt`` of the plan's controls."""
    return total_l2_norm_sq([sig for sig in (plan.f, plan.g) if sig], 0.0,
                            plan.T)


def bilinear_pairing(params: PhysicalParams, state: ModalState,
                     adjoint_state: ModalState) -> complex:
    """``integral u phi + v psi dx`` = 2 pi sum_k (u_k phi_{-k} + v_k psi_{-k}),
    diagonal in the eigenbases: the duality map of ``state`` applied to the
    adjoint coefficients.  The pairing conserved by the mutually dual free
    flows."""
    return complex(_duality_rhs(params, state) @ adjoint_state.coeffs.ravel())


def duality_residual(params: PhysicalParams, N: int,
                     f: ExponentialSignal | None,
                     g: ExponentialSignal | None, x0: float,
                     initial: ModalState, adjoint_seed: ModalState,
                     T: float) -> float:
    """Relative defect of the transposition identity: the pairing of the
    controlled state with the adjoint solution at T equals its value at 0
    plus the directed time integral of (f, g) against the adjoint traces.
    Raises ValueError when the horizon overflows the defect."""
    with np.errstate(over="ignore", invalid="ignore"):
        final = forced_evolve(params, N, initial, f, g, x0, T)
        adj_final = evolve(params, adjoint_seed, T)
        lhs = bilinear_pairing(params, final, adj_final)
        phi_sig, psi_sig = trace(params, adjoint_seed, x0, adjoint=True)
        rhs = bilinear_pairing(params, initial, adjoint_seed)
        if f:
            rhs += f.bilinear_integral(phi_sig, 0.0, T)
        if g:
            rhs += g.bilinear_integral(psi_sig, 0.0, T)
        scale = max(abs(lhs), abs(rhs), energy(params, initial),
                    energy(params, adjoint_seed), 1.0)
        residual = abs(lhs - rhs) / scale
    if not np.isfinite(residual):
        raise ValueError(f"horizon T={T:g} overflows the duality defect")
    return residual

"""Duality-based control synthesis in adjoint eigen-coordinates.

The control operator is the Gram matrix of the adjoint pointwise traces.
Steering between arbitrary states reduces to a null-control solve of the
defect ``initial - free-backward-evolved target`` against it; controls
come out as exponential sums built from the adjoint solution.  Up to a
diagonal of phases the operator is the real observation form, so it is
built only as observe's two parity blocks, in closed form, and solved by
their eigensolve, ``gram._block_eigh``.
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
from .signals import ExponentialSignal, _signals, total_l2_norm_sq
from .spectral import (PhysicalParams, _from_real, _to_real, mode_phases,
                       spectrum_table, trace_amplitudes)

COND_LIMIT = 1e14
# Largest accepted a-priori estimate of the relative round-trip error of a
# solve and its check (``solve_control``; the tightest round-trip tolerance
# in use is 1e-8).
ERROR_EST_LIMIT = 1e-8
MEAN_TOL = 1e-10
# observed adjoint trace channels (phi = 0, psi = 1) per control mode
_CHANNELS = {"both": [0, 1], "f_only": [0], "g_only": [1]}


@dataclass(eq=False)
class HumSystem:
    """The control operator in adjoint eigen-coordinates, held only as the
    parity blocks of its real form.

    x0 and the horizon's centre enter it only through the phases ``D =
    diag(e^{i(k x0 + omega T/2)})`` (``spectral.mode_phases``): ``Lambda =
    D U blkdiag(C+, C-) U^H D^H``, U the real-field basis and (C+, C-) the
    blocks (``gram._parity_blocks``) of the real form of the observed
    adjoint amplitudes at x0 = 0 over [-T/2, T/2].  The solves complete C+
    along the unit kernel direction v of single modes to ``C+ + sigma v
    v^T``, whose eigenvalues and, below COND_LIMIT, eigenvectors ``V =
    blkdiag(V+, V-)`` are computed once."""

    blocks: tuple[np.ndarray, np.ndarray]  # (C+, C-), long double copies
    phases: np.ndarray         # the diagonal of D, in long double
    constraint: np.ndarray | None  # v: unit kernel direction, single modes
    params: PhysicalParams     # the problem it was assembled for
    N: int
    x0: float
    T: float
    mode: str

    def eigvals(self) -> np.ndarray:
        """Eigenvalues of the operator (read-only): in single modes, the
        completion's with its eigenvalue sigma, their mean, set to 0."""
        vals = self._factor[0]
        if self.constraint is not None:
            at_sigma = np.argmin(np.abs(vals - np.mean(vals)))
            vals = np.sort(np.r_[0.0, np.delete(vals, at_sigma)])
            vals.flags.writeable = False
        return vals

    def condition_number(self) -> float:
        """Condition number of the operator solved: on the complement of
        the structural kernel direction in single modes."""
        return self._factor[1]

    @cached_property
    def _factor(self) -> tuple:
        """(vals, cond, V, v): the completed blocks' ascending eigenvalues,
        their condition number, V (columns in their order; None above
        COND_LIMIT) and v in the real layout."""
        plus, minus = (b.astype(float) for b in self.blocks)
        v = self.constraint
        if v is not None:
            # C+ v = 0 (equal or opposite k=0 columns); sigma, the mean of
            # the other eigenvalues, keeps the extremes and the complement
            v = _to_real(v).real
            sigma = (np.trace(plus) + np.trace(minus)) / (len(v) - 1)
            plus = plus + sigma * np.outer(v[:len(plus)], v[:len(plus)])
        vals, vecs = _block_eigh(plus, minus)
        vals.flags.writeable = False
        cond = np.inf if vals[0] <= 0 else float(vals[-1] / vals[0])
        return vals, cond, None if cond > COND_LIMIT else vecs, v

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """blkdiag(C+, C-) x in long double (np.dot: matmul is slower)."""
        plus, minus = self.blocks
        return np.concatenate([np.dot(plus, x[:len(plus)]),
                               np.dot(minus, x[len(plus):])])

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """``V (V^T b / vals)`` on the complement of v, in the real layout."""
        vals, _, V, v = self._factor
        b = b if v is None else b - np.multiply.outer(v, v @ b)
        return V @ ((V.T @ b) / vals[:, None])

    def _refined_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve of ``Lambda s = b`` on the complement of D v = v (D is 1 at
        k=0): ``y = U^H D^H b`` as real and imaginary columns, solved by V
        and refined with residuals in long double against the blocks, so it
        converges even at a condition number near 1/eps; then s = D U x.  D
        and U act in long double.  At most 6 corrections; it stops after one
        at most max(1e-16, cond eps_ld) |x|, the rounding noise of the
        residual in long double, or after one above half the previous."""
        y = _to_real(np.conj(self.phases) * b)
        y = np.stack([y.real, y.imag], axis=1)
        x = self._solve(y.astype(float)).astype(np.longdouble)
        noise = max(1e-16, self._factor[1] * np.finfo(np.longdouble).eps)
        last = np.inf
        for _ in range(6):
            corr = self._solve((y - self._apply(x)).astype(float))
            size = np.linalg.norm(corr)
            x = x + corr
            if size <= noise * np.linalg.norm(x.astype(float)) \
                    or size > last / 2:
                break
            last = size
        return (self.phases * _from_real(x[:, 0] + 1j * x[:, 1])).astype(
            complex)


@dataclass(eq=False)
class ControlPlan:
    f: ExponentialSignal | None
    g: ExponentialSignal | None
    x0: float
    T: float
    adjoint_seed: np.ndarray   # seed coefficients xi over (branch, k)
    # a-priori estimate of the relative round-trip error of solve and check
    error_estimate: float | None = None


def assemble_lambda(params: PhysicalParams, N: int, x0: float, T: float,
                    mode: str = "both") -> HumSystem:
    """Gram operator of the adjoint traces observed over [0, T].

    The quadratic form of a seed equals ``integral_0^T`` of the squared
    observed adjoint traces; in single-control modes only the matching
    trace contributes and the structural k=0 kernel direction is recorded.
    Raises ValueError for a horizon T >= sqrt(float max), past which the
    error estimate of ``solve_control`` understates the round trip.
    """
    if mode not in _CHANNELS:
        raise ValueError(f"unknown mode {mode!r}")
    if not T > 0:
        raise ValueError("horizon must be positive")
    # the solution s scales as 1/T, and the squares that np.linalg.norm(s)
    # sums for the error estimate underflow past this T
    if not T < math.sqrt(np.finfo(float).max):
        raise ValueError(f"horizon T={T:g} overflows the control operator")
    table = spectrum_table(params, N)
    rows = trace_amplitudes(params, N, 0.0, adjoint=True).real[_CHANNELS[mode]]
    blocks = _parity_blocks(rows, table.omega.ravel(), T / 2)
    phases = mode_phases(table, x0, T / 2).ravel()
    v = None
    if mode != "both":
        # the phi-trace 2d(q+ + q-) vanishes on q+ = -q-, the psi-trace
        # sqrt(4acd)(q+ - q-) on q+ = q-
        v = np.zeros(len(phases))
        sign = -1.0 if mode == "f_only" else 1.0
        v[[N, 3 * N + 1]] = np.array([1.0, sign]) / np.sqrt(2)
    return HumSystem(tuple(b.astype(np.longdouble) for b in blocks), phases,
                     v, params, N, x0, T, mode)


def _checked(system: HumSystem | None, params, N, x0, T, mode) -> HumSystem:
    """``system`` (new if None); ValueError if built for another problem."""
    if system is not None and (
            system.params, system.N, system.x0, system.T,
            system.mode) != (params, N, x0, T, mode):
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
    error, ``eps (2 lambda_max |s| / |rhs| + (|initial| + |target|) /
    scale)`` with the scale of ``verify_roundtrip``, ERROR_EST_LIMIT.
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

    vals, cond, V, _ = system._factor
    what = "control operator" if system.constraint is None else \
        "restricted control operator"
    if V is None:
        raise IllConditioned(
            f"{what} condition number exceeds 1e14; increase T or reduce N",
            condition_number=cond, alpha_estimate=float(vals[0]))
    s = system._refined_solve(rhs)
    v = system.constraint  # D is 1 at k=0, so D v = v
    rhs_norm = np.linalg.norm(rhs if v is None else rhs - v * (v @ rhs))
    # rounding model: the solve's backward error and the check's Duhamel
    # step (the same kernel applied to s) each eps lambda_max |s| / |rhs|;
    # the check's free flow, sum and difference eps of the states they round
    est = float(np.finfo(float).eps * (sum(norms) / scale + (
        0.0 if rhs_norm == 0 else 2 * vals[-1] * np.linalg.norm(s) / rhs_norm)))
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
    used = [mode != "g_only", mode != "f_only"]
    omega = spectrum_table(params, N).omega.ravel()
    sigs = _signals(rows[used], -omega)
    f, g = (next(sigs) if use else None for use in used)
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
    D = system.phases
    rhs = (D * _from_real(system._apply(_to_real(
        np.conj(D) * np.asarray(seed_coeffs, dtype=complex))))).astype(complex)
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

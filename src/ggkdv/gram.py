"""Exact exponential Gram matrices and observability constants.

The observation quadratic forms ``integral_I |trace|^2 dt`` are Hermitian
Gram matrices with closed-form entries.  Two-sided observability constants
are their extreme generalized eigenvalues against the (diagonal) energy
form.  The observation point and the window's centre enter those forms
only through a diagonal of phases, so the constants are the eigenvalues
of one real symmetric matrix and do not depend on the observation point.
``divided_difference_constants`` gives the Riesz bounds of the merged
frequency family, whose cross-branch members cluster in pairs, in the
Newton divided-difference coordinates of the single-trace proof; in
practice that Gram is no better conditioned than the plain one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EpsilonUnderflow
from .signals import exp_kernel
from .spectral import PhysicalParams, spectrum_table, trace_amplitudes

KERNEL_REL_TOL = 1e-14
COINCIDENT_TOL = 1e-12
EPSILON_FLOOR = 1e-14


@dataclass(frozen=True)
class ObservationWindow:
    t0: float
    t1: float

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError("window must be non-degenerate: t1 > t0")

    @property
    def length(self) -> float:
        return self.t1 - self.t0


def trace_gram(amps, omega, t0: float, t1: float, shift=0) -> np.ndarray:
    """Hermitian Gram of multi-channel exponential traces:

        G[i, j] = sum_c amps[c, i] conj(amps[c, j])
                  * integral_{t0}^{t1} e^{i (omega_i - omega_j + shift) t} dt.

    ``amps`` has one row per channel; an imaginary ``shift`` 2iw applies the
    weight e^{-2wt}.  The result is symmetrized to Hermitian.
    """
    G = exp_kernel(omega + shift, -omega, t0, t1)
    G *= sum(np.outer(a, np.conj(a)) for a in amps)
    return (G + G.conj().T) / 2


@dataclass(frozen=True, eq=False)
class ObservabilityReport:
    alpha: float
    beta: float
    kernel_dim: int
    eigenvalues: np.ndarray = field(repr=False)
    labels: tuple = field(repr=False)
    # the structural kernel basis, or else the real folded form C = S R S
    # and the scaling D S of its eigenvectors; each is None when the other
    # is set
    structural: np.ndarray | None = field(repr=False)
    C: np.ndarray | None = field(repr=False)
    scale: np.ndarray | None = field(repr=False)

    @cached_property
    def kernel_vectors(self) -> np.ndarray:
        """Kernel basis, one column per kernel dimension: the structural one,
        or, when roundoff adds kernel eigenvalues the structure does not
        explain, scale times the eigenvectors of C, computed on first read."""
        if self.structural is not None:
            return self.structural
        vecs = np.linalg.eigh(self.C)[1]
        return self.scale[:, None] * vecs[:, :self.kernel_dim]


def observability_constants(params: PhysicalParams, N: int, x0: float,
                            window: ObservationWindow,
                            mode: str = "both") -> ObservabilityReport:
    """Extreme generalized eigenvalues of the observation form against the
    energy form.

    alpha is the smallest eigenvalue (floored at zero: the form is PSD and
    tiny negatives are roundoff), beta the largest; kernel_dim counts
    eigenvalues at or below the relative kernel threshold.  mode selects
    which traces are observed.  The diagonal energy form is folded in as
    ``C = S R S`` with ``S = diag(2 pi ||Z||_w^2)^-1/2`` and R the form of
    the real amplitudes Z over the centred window [-h, h].  x0 and the
    window's centre t_c enter only as ``D = diag(e^{i(k x0 + omega t_c)})``
    in the form ``D C D^H``, so the eigenvalues are those of the real C,
    independent of x0, and eigenvectors map back by ``scale = D S``.
    """
    if mode not in ("both", "u_only", "v_only"):
        raise ValueError(f"unknown mode {mode!r}")
    table = spectrum_table(params, N)
    omega = table.omega.ravel()
    norm = 1.0 / np.sqrt((2 * np.pi * table.norm2).ravel())
    h = window.length / 2
    z = trace_amplitudes(params, N, 0.0).real  # real at x0 = 0
    # the integral over [-h, h] is twice the real part of the one over
    # [0, h], where the kernel spares an exponential
    C = 2 * trace_gram(_observed(*z, mode) * norm, omega, 0.0, h).real
    vals = np.linalg.eigvalsh(C)
    beta = float(vals[-1])
    kernel_dim = int(np.sum(vals <= KERNEL_REL_TOL * beta))
    alpha = float(max(vals[0], 0.0))
    u_amp, v_amp = trace_amplitudes(params, N, x0)
    structural = _structural_kernel(u_amp, v_amp, omega, mode)
    # when the counts agree the structural basis wins: eigenvectors of a tiny
    # cluster mix with adjacent almost-unobservable directions
    if structural.shape[1] == kernel_dim:
        return ObservabilityReport(alpha, beta, kernel_dim, vals,
                                   table.labels, structural, None, None)
    ks = np.tile(table.ks, 2)
    scale = np.exp(1j * (ks * x0 + omega * (window.t0 + h))) * norm
    return ObservabilityReport(alpha, beta, kernel_dim, vals, table.labels,
                               None, C, scale)


def _observed(u_amp, v_amp, mode) -> np.ndarray:
    """The observed channels' amplitude rows, shape (channels, n)."""
    return np.array([amp for amp, only in ((u_amp, "u_only"), (v_amp, "v_only"))
                     if mode in ("both", only)])


def _structural_kernel(u_amp, v_amp, omega, mode) -> np.ndarray:
    """Orthonormal basis of the exact kernel of the observation form.

    A coefficient vector is unobserved iff the trace signal vanishes
    identically, i.e. the summed amplitude over each group of exactly
    coinciding frequencies is zero for every observed channel (complex
    exponentials with distinct frequencies are independent on any
    window).  The amplitude map is block diagonal over the groups, so its
    null space is found group by group: a singleton is kernel iff its
    amplitudes vanish, a larger group takes a small SVD of its block.
    Singular values count as zero under the rank rule of
    ``scipy.linalg.null_space`` applied to the whole map: below
    ``max(rows, n) * eps * s_max``, s_max the largest over all groups.
    """
    amps = np.conj(_observed(u_amp, v_amp, mode))
    n = len(omega)
    tol = 1e-9 * (1.0 + np.max(np.abs(omega)))
    order = np.argsort(omega)
    starts = np.flatnonzero(np.r_[True, np.diff(omega[order]) > tol])
    sizes = np.diff(np.r_[starts, n])
    blocks = []  # (members (groups, m), singular values, right vectors)
    for m in np.unique(sizes):
        members = order[starts[sizes == m][:, None] + np.arange(m)]
        block = amps[:, members].transpose(1, 0, 2)  # (groups, channels, m)
        if m == 1:
            sv = np.linalg.norm(block, axis=1)
            vh = np.ones((len(members), 1, 1))
        else:
            _, sv, vh = np.linalg.svd(block)
        blocks.append((members, sv, vh))
    s_max = max(float(np.max(sv, initial=0.0)) for _, sv, _ in blocks)
    rows = len(amps) * len(starts)
    zero = max(rows, n) * np.finfo(float).eps * s_max
    columns = []
    for members, sv, vh in blocks:
        rank = np.sum(sv > zero, axis=1)
        g, j = np.nonzero(np.arange(members.shape[1]) >= rank[:, None])
        col = np.zeros((n, len(g)), dtype=complex)
        col[members[g], np.arange(len(g))[:, None]] = vh[g, j].conj()
        columns.append(col)
    return np.hstack(columns)


def ingham_report(frequencies, window: ObservationWindow) -> tuple[float, float]:
    """(direct_const, inverse_const): extreme eigenvalues of the scalar
    exponential Gram of an arbitrary frequency family over the window."""
    freqs = np.asarray(sorted(frequencies), dtype=float)
    if len(np.unique(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct")
    # the window's centre enters only as a unitary diagonal: the Gram over
    # the centred window [-h, h] is real symmetric with the same eigenvalues
    h = window.length / 2
    G = 2 * trace_gram(np.ones((1, len(freqs))), freqs, 0.0, h).real
    vals = np.linalg.eigvalsh(G)
    return float(vals[-1]), float(vals[0])


def divided_difference_constants(params: PhysicalParams, N: int,
                                 window: ObservationWindow,
                                 epsilon: float | None = None):
    """Riesz bounds ``(lo, hi, epsilon)`` of the merged frequency family:
    extreme eigenvalues of the Gram of the Newton basis over its chains, lo
    floored at zero (the form is PSD and tiny negatives are roundoff).
    epsilon defaults to min(1, smallest same-branch gap / 4)."""
    table = spectrum_table(params, N)
    if epsilon is None:
        epsilon = min(1.0, float(np.min(np.abs(np.diff(table.omega)))) / 4)
    # the structural k=0 duplicate is one family element, not a cluster
    omega = np.unique(table.omega)
    linked, epsilon = _cluster(omega, epsilon)
    vals = np.linalg.eigvalsh(_newton_gram(omega, linked, window))
    return max(float(vals[0]), 0.0), float(vals[-1]), epsilon


def _cluster(omega, epsilon: float):
    """``(linked, epsilon)``: ``linked[i]`` joins omega[i] and omega[i+1]
    (gap below epsilon) in a chain, epsilon halved until no chain has three
    members.  Raises EpsilonUnderflow below EPSILON_FLOOR (a resonance)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    gaps = np.diff(omega)
    while True:
        linked = gaps < epsilon
        if not np.any(linked[1:] & linked[:-1]):
            return linked, epsilon
        epsilon /= 2
        if epsilon < EPSILON_FLOOR:
            raise EpsilonUnderflow(
                "clustering tolerance underflow; run resonance_check")


def _newton_gram(omega, linked, window: ObservationWindow) -> np.ndarray:
    """Closed-form Gram ``integral_I b_m conj(b_n) dt`` of the Newton basis
    of the chains ``linked`` over the sorted frequencies omega: e^{i w t}
    for each w, except that the second member of a pair (w1, w2) gives
    (e^{i w1 t} - e^{i w2 t}) / (w1 - w2), or t e^{i w1 t} within
    COINCIDENT_TOL."""
    pairs = np.flatnonzero(linked)
    near = omega[pairs + 1] - omega[pairs] <= COINCIDENT_TOL
    apart, close = pairs[~near], pairs[near]
    amps = np.eye(len(omega), dtype=complex)
    inv = 1.0 / (omega[apart] - omega[apart + 1])
    amps[apart + 1, apart] = inv
    amps[apart + 1, apart + 1] = -inv
    freqs = omega.copy()
    freqs[close + 1] = omega[close]
    degrees = np.zeros(len(omega), dtype=int)
    degrees[close + 1] = 1
    G = np.einsum("mj,nj->mn", exp_kernel(freqs, -freqs, window.t0,
                                          window.t1, degrees, degrees,
                                          left=amps), amps.conj())
    # symmetrize away last-bit asymmetry
    return (G + G.conj().T) / 2

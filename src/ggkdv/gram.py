"""Exact exponential Gram matrices and observability constants.

The observation quadratic forms ``integral_I |trace|^2 dt`` are Hermitian
Gram matrices with closed-form entries.  Two-sided observability constants
are their extreme generalized eigenvalues against the (diagonal) energy
form.  For single-trace observation the merged frequency family has
clustered cross-branch pairs; chain clustering with Newton divided
differences provides a well-conditioned coordinate system for those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EpsilonUnderflow
from .signals import ExponentialSignal, exp_kernel, stack_terms
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


@dataclass(frozen=True)
class Chain:
    """Equivalence class of clustered frequencies; at most two members."""

    members: tuple  # ((label, freq), ...) sorted by frequency
    epsilon: float

    def __post_init__(self):
        if not 1 <= len(self.members) <= 2:
            raise ValueError("a chain has one or two members")


def cluster_chains(frequencies, epsilon: float) -> tuple[list[Chain], float]:
    """Transitive closure of |x - y| < epsilon over a labelled family.

    If any class collects more than two members, epsilon is halved until
    all classes have at most two; the final epsilon is returned alongside
    the chains.  Raises EpsilonUnderflow below 1e-14 (a genuine resonance).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    entries = sorted(frequencies, key=lambda lf: lf[1])
    while True:
        classes: list[list] = []
        for label, freq in entries:
            if classes and freq - classes[-1][-1][1] < epsilon:
                classes[-1].append((label, freq))
            else:
                classes.append([(label, freq)])
        if all(len(cls) <= 2 for cls in classes):
            return [Chain(tuple(cls), epsilon) for cls in classes], epsilon
        epsilon /= 2
        if epsilon < EPSILON_FLOOR:
            raise EpsilonUnderflow(
                "clustering tolerance underflow; run resonance_check")


def divided_diff_basis(chain: Chain) -> list[ExponentialSignal]:
    """Newton divided-difference functions of a chain.

    Singleton -> {e^{i w t}}; a separated pair -> {e^{i w1 t},
    (e^{i w1 t} - e^{i w2 t})/(w1 - w2)}; a coincident pair -> the analytic
    limit {e^{i w t}, t e^{i w t}}.
    """
    freqs = [f for _, f in chain.members]
    if len(freqs) == 1:
        return [ExponentialSignal(((1.0 + 0.0j, freqs[0], 0),))]
    w1, w2 = freqs
    if abs(w1 - w2) <= COINCIDENT_TOL:
        return [
            ExponentialSignal(((1.0 + 0.0j, w1, 0),)),
            ExponentialSignal(((1.0 + 0.0j, w1, 1),)),
        ]
    inv = 1.0 / (w1 - w2)
    return [
        ExponentialSignal(((1.0 + 0.0j, w1, 0),)),
        ExponentialSignal.from_terms([(inv, w1, 0), (-inv, w2, 0)]),
    ]


def exp_gram(basis: list[ExponentialSignal],
             window: ObservationWindow) -> np.ndarray:
    """Hermitian Gram matrix ``integral_I b_m conj(b_n) dt`` of the signals
    over the window, all integrals in closed form."""
    if not basis:
        raise ValueError("basis must be nonempty")
    amps, freqs, degrees = stack_terms(basis)
    G = np.einsum("mj,nj->mn", exp_kernel(freqs, -freqs, window.t0,
                                          window.t1, degrees, degrees,
                                          left=amps), amps.conj())
    # symmetrize away last-bit asymmetry
    return (G + G.conj().T) / 2


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


@dataclass(frozen=True)
class ObservabilityReport:
    alpha: float
    beta: float
    kernel_dim: int
    eigenvalues: np.ndarray = field(repr=False)
    labels: tuple = field(repr=False)
    # the structural kernel basis, or else the folded form C = S O S and
    # its scaling S; each is None when the other is set
    structural: np.ndarray | None = field(repr=False)
    C: np.ndarray | None = field(repr=False)
    scale: np.ndarray | None = field(repr=False)

    @cached_property
    def kernel_vectors(self) -> np.ndarray:
        """Kernel basis, one column per kernel dimension: the structural one,
        or, when roundoff adds kernel eigenvalues the structure does not
        explain, S times the eigenvectors of C, computed on first read."""
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
    ``C = S O S`` with ``S = diag(2 pi ||Z||_w^2)^-1/2``, so the
    generalized problem is the ordinary Hermitian one of C and its
    eigenvectors scale back by S.
    """
    if mode not in ("both", "u_only", "v_only"):
        raise ValueError(f"unknown mode {mode!r}")
    table = spectrum_table(params, N)
    u_amp, v_amp = trace_amplitudes(params, N, x0)
    omega = table.omega.ravel()
    scale = 1.0 / np.sqrt((2 * np.pi * table.norm2).ravel())
    C = trace_gram(_observed(u_amp, v_amp, mode) * scale, omega,
                   window.t0, window.t1)
    vals = np.linalg.eigvalsh(C)
    beta = float(vals[-1])
    kernel_dim = int(np.sum(vals <= KERNEL_REL_TOL * beta))
    alpha = float(max(vals[0], 0.0))
    structural = _structural_kernel(u_amp, v_amp, omega, mode)
    # when the counts agree the structural basis wins: eigenvectors of a tiny
    # cluster mix with adjacent almost-unobservable directions
    if structural.shape[1] == kernel_dim:
        return ObservabilityReport(alpha, beta, kernel_dim, vals,
                                   table.labels, structural, None, None)
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
    G = trace_gram(np.ones((1, len(freqs))), freqs, window.t0, window.t1)
    vals = np.linalg.eigvalsh(G)
    return float(vals[-1]), float(vals[0])


def default_chain_epsilon(params: PhysicalParams, N: int) -> float:
    """min(1, gamma_hat / 4) with gamma_hat the smallest same-branch gap."""
    table = spectrum_table(params, N)
    gamma = min(float(np.min(np.abs(np.diff(table.omega[0])))),
                float(np.min(np.abs(np.diff(table.omega[1])))))
    return min(1.0, gamma / 4)


def divided_difference_constants(params: PhysicalParams, N: int,
                                 window: ObservationWindow,
                                 epsilon: float | None = None):
    """Riesz bounds of the merged frequency family in divided-difference
    coordinates: extreme eigenvalues of the Gram of the Newton basis built
    over the clustered chains."""
    table = spectrum_table(params, N)
    entries = zip(table.labels, table.omega.ravel().tolist())
    # the structural k=0 duplicate is one family element, not a cluster
    seen = set()
    unique = []
    for label, f in entries:
        if f in seen:
            continue
        seen.add(f)
        unique.append((label, f))
    if epsilon is None:
        epsilon = default_chain_epsilon(params, N)
    chains, eps = cluster_chains(unique, epsilon)
    basis = [sig for ch in chains for sig in divided_diff_basis(ch)]
    vals = np.linalg.eigvalsh(exp_gram(basis, window))
    return float(vals[0]), float(vals[-1]), eps

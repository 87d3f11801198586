"""Exact exponential Gram matrices and observability constants.

The observation quadratic forms ``integral_I |trace|^2 dt`` are Hermitian
Gram matrices with closed-form entries.  Two-sided observability constants
are their extreme generalized eigenvalues against the (diagonal) energy
form.  The observation point and the window's centre enter those forms
only through a diagonal of phases, so the constants are the eigenvalues
of one real symmetric matrix and do not depend on the observation point.
That matrix commutes with the swap k <-> -k (the frequencies are odd in k,
the amplitudes even), so it is solved as two real parity blocks over the
modes k >= 0, never assembled whole; ``_block_eigh`` gives their
eigenvectors, and factors ``hum``'s control operator too.  Their kernel
entries 2 sin(x h) / x, at every frequency difference and sum x, come by the
addition formula from one exact phase per frequency, not one sine per entry
(``signals._centred_matrix``, also the kernel of control costs).
``divided_difference_constants`` gives the Riesz bounds of the merged
frequency family, whose cross-branch members cluster in pairs, in the Newton
divided-difference coordinates of the single-trace proof: the Gram of the
exponentials, mapped to them by difference rows and columns in O(n^2).  In
practice that Gram is no better conditioned than the plain one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EpsilonUnderflow
from .signals import _centred_kernel, _centred_matrix, _phase
from .spectral import (PhysicalParams, SpectrumTable, _from_real,
                       mode_phases, spectrum_table, trace_amplitudes)

KERNEL_REL_TOL = 1e-14
COINCIDENT_TOL = 1e-12
EPSILON_FLOOR = 1e-14
# observed trace channels (u = 0, v = 1) per mode
_CHANNELS = {"both": [0, 1], "u_only": [0], "v_only": [1]}


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


@dataclass(frozen=True, eq=False)
class ObservabilityReport:
    """Constants of the folded form C = S R S, and what ``kernel_vectors``
    is built from on first read: the observed real amplitude rows Z S, the
    parity blocks (C+, C-), and the table, x0 and window centre t_c."""

    alpha: float
    beta: float
    kernel_dim: int
    eigenvalues: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    blocks: tuple[np.ndarray, np.ndarray] = field(repr=False)
    table: SpectrumTable = field(repr=False)
    x0: float
    t_c: float

    @cached_property
    def kernel_vectors(self) -> np.ndarray:
        """Energy-orthonormal basis of the unobserved states, one column per
        kernel dimension: each column c is a state whose observed trace
        ``sum_j c_j amps_j e^{i omega_j t}`` (``trace_amplitudes``) vanishes.
        It is the structural kernel of the rows Z S, mapped to states by
        D^H S.  Only when roundoff adds kernel eigenvalues the structure
        does not explain are the eigenvectors of C of the kernel_dim
        smallest eigenvalues taken instead, from the two blocks lifted by U
        (the eigenvectors of a tiny cluster mix with adjacent
        almost-unobservable directions)."""
        w = _structural_kernel(self.rows, self.table.omega.ravel())
        if w.shape[1] != self.kernel_dim:
            w = _from_real(_block_eigh(*self.blocks)[1][:, :self.kernel_dim])
        lift = (np.conj(mode_phases(self.table, self.x0, self.t_c)).ravel()
                * (1.0 / np.sqrt((2 * np.pi * self.table.norm2).ravel())))
        return (lift[:, None] * w).astype(complex)


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
    window's centre t_c enter only as ``D = diag(e^{i(k x0 + omega t_c)})``:
    a state c observes ``(D c)^H R (D c)``, so the eigenvalues are those of
    the real C, independent of x0, and a vector w of C is the state
    ``D^H S w``.

    C is never formed.  Its entries are ``A_ij K(omega_i - omega_j)`` with
    ``A = sum_c a_c a_c^T`` over the observed channels and the even kernel
    ``K(delta) = 2 sin(delta h) / delta``; omega is odd and A even under the
    swap P: k <-> -k, so P C P = C and the real-field basis U splits C into
    C+ over the u_k and e_0, and C- over the v_k.  Both run over the modes
    k >= 0 only, with entries ``A_ij [K(omega_i - omega_j) +- K(omega_i +
    omega_j)]``, the rows and columns of k = 0 scaled by 1/sqrt2 in C+; the
    eigenvalues of C are those of the two blocks together.
    """
    if mode not in _CHANNELS:
        raise ValueError(f"unknown mode {mode!r}")
    table = spectrum_table(params, N)
    norm = 1.0 / np.sqrt((2 * np.pi * table.norm2).ravel())
    h = window.length / 2
    # the amplitudes are real at x0 = 0
    rows = trace_amplitudes(params, N, 0.0).real[_CHANNELS[mode]] * norm
    blocks = _parity_blocks(rows, table.omega.ravel(), h)
    vals = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    beta = float(vals[-1])
    kernel_dim = int(np.sum(vals <= KERNEL_REL_TOL * beta))
    alpha = float(max(vals[0], 0.0))
    return ObservabilityReport(alpha, beta, kernel_dim, vals, rows, blocks,
                               table, x0, window.t0 + h)


def _parity_blocks(amps, omega, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(C+, C-): the blocks of the real form ``sum_c a_c a_c^T *
    K(omega_i - omega_j)`` in the real-field basis, for amplitude rows even
    and frequencies odd in k; C+ runs over [branch, k] for k >= 0, C- for
    k > 0.  Their kernels K(omega_i -+ omega_j) of the real centred kernel
    K come from one exact phase per frequency (``signals._centred_matrix``).
    Raises ValueError for a half-window h at which they overflow."""
    N = (len(omega) // 2 - 1) // 2
    w = omega.reshape(2, 2 * N + 1)[:, N:].ravel()
    a = amps.reshape(len(amps), 2, 2 * N + 1)[:, :, N:].copy()
    # e_0 has no partner, which the pair entries count twice
    a[:, :, 0] /= math.sqrt(2)
    a = a.reshape(len(amps), -1)
    # plus holds K(omega_i - omega_j) until it becomes C+; C- drops the
    # rows and columns of k = 0 on both branches
    with np.errstate(over="ignore", invalid="ignore"):
        plus, summ = _centred_matrix(w, None, h, _phase(w, h),
                                     (np.subtract, np.add))
        A = np.multiply.outer(a[0], a[0])
        for row in a[1:]:
            A += np.multiply.outer(row, row)
        minus = _positive(plus, N) - _positive(summ, N)
        minus *= _positive(A, N)
        plus += summ
        plus *= A
    if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
        raise ValueError(f"half-window h={h:g} overflows the form")
    return plus, minus.reshape(2 * N, 2 * N)


def _positive(M, N: int):
    """The entries of M over [branch, k], k >= 0, at k > 0, as a view."""
    return M.reshape(2, N + 1, 2, N + 1)[:, 1:, :, 1:]


def _block_eigh(plus, minus) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of blkdiag(C+, C-) and, in their order, its real
    eigenvectors blkdiag(V+, V-) in the layout of ``spectral._to_real``, one
    array with each vector a contiguous column."""
    (vals_p, vecs_p), (vals_m, vecs_m) = map(np.linalg.eigh, (plus, minus))
    vals, n_p = np.r_[vals_p, vals_m], len(vals_p)
    order = np.argsort(vals, kind="stable")
    vecs, rank = np.zeros((len(vals),) * 2, order="F"), np.argsort(order)
    vecs[:n_p, rank[:n_p]], vecs[n_p:, rank[n_p:]] = vecs_p, vecs_m
    return vals[order], vecs


def _structural_kernel(amps, omega) -> np.ndarray:
    """Orthonormal basis of the exact kernel of the real amplitude rows
    ``amps`` (channels, n) at the frequencies omega.

    A vector is in it iff its trace signal vanishes identically: the
    summed amplitude over each group of exactly coinciding frequencies is
    zero for every channel (exponentials with distinct frequencies are
    independent on any window).  So the null space is found group by
    group: a singleton is kernel iff its amplitudes vanish, a larger group
    takes a small SVD of its block.  Singular values count as zero under
    the rank rule of ``scipy.linalg.null_space`` applied to the whole map:
    below ``max(rows, n) * eps * s_max``, s_max the largest over all
    groups.
    """
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
        col = np.zeros((n, len(g)))
        col[members[g], np.arange(len(g))[:, None]] = vh[g, j]
        columns.append(col)
    return np.hstack(columns)


def ingham_report(frequencies, window: ObservationWindow) -> tuple[float, float]:
    """(direct_const, inverse_const): extreme eigenvalues of the scalar
    exponential Gram of an arbitrary frequency family over the window.

    The window's centre enters only as a unitary diagonal, so they are
    those of the real Gram ``_centred_kernel(omega_i - omega_j)`` over the
    centred window [-h, h]."""
    freqs = np.asarray(sorted(frequencies), dtype=float)
    if not 0 < len(np.unique(freqs)) == len(freqs):
        raise ValueError("frequencies must be one or more distinct numbers")
    with np.errstate(over="ignore", invalid="ignore"):
        G = _centred_kernel(np.subtract.outer(freqs, freqs), window.length / 2)
    if not np.all(np.isfinite(G)):
        raise ValueError(f"window [{window.t0:g}, {window.t1:g}] overflows "
                         "the Gram")
    vals = np.linalg.eigvalsh(G)
    return float(vals[-1]), float(vals[0])


def divided_difference_constants(params: PhysicalParams, N: int,
                                 window: ObservationWindow):
    """Riesz bounds ``(lo, hi, epsilon)`` of the merged frequency family:
    extreme eigenvalues of the Gram of the Newton basis over its chains, lo
    floored at zero (the form is PSD and tiny negatives are roundoff).
    The clustering starts from epsilon = min(1, smallest same-branch gap
    / 4)."""
    table = spectrum_table(params, N)
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
    (e^{i w1 t} - e^{i w2 t}) / (w1 - w2).  The Gram of the exponentials,
    e^{i w_m c} K_h(w_m - w_n) e^{-i w_n c} over the window's centre c and
    half-length h, is mapped to the difference rows, then columns, in place
    (the pairs are disjoint).  A pair within COINCIDENT_TOL would need the
    limit t e^{i w1 t}: it raises EpsilonUnderflow, as a resonance."""
    pairs = np.flatnonzero(linked)
    if np.any(omega[pairs + 1] - omega[pairs] <= COINCIDENT_TOL):
        raise EpsilonUnderflow("coincident frequencies; run resonance_check")
    h = window.length / 2
    cis = _phase(omega, h)
    centre = cis if window.t0 == 0 else _phase(omega, window.t0 + h)
    G = _centred_matrix(omega, None, h, cis, [np.subtract])[0]
    G = centre[:, None] * G * np.conj(centre)
    gap = omega[pairs] - omega[pairs + 1]
    G[pairs + 1] = (G[pairs] - G[pairs + 1]) / gap[:, None]
    G[:, pairs + 1] = (G[:, pairs] - G[:, pairs + 1]) / gap
    # symmetrize away last-bit asymmetry
    return (G + G.conj().T) / 2

"""Vectorized Liouvillians: assembly of superoperators and time evolution.

Density matrices are vectorized by column stacking, vec([[a, c], [b, d]])
= (a, b, c, d), so that vec(A rho C) = (C^T kron A) vec(rho).  The master
equation d rho / dt = -i[H, rho] + sum_k r_k (X_k rho X_k' - 1/2 {X_k'X_k, rho})
then becomes a linear system d|rho>> / dt = L |rho>> with

    L = I kron G + conj(G) kron I + sum_k r_k conj(X_k) kron X_k,
    G = -i H - 1/2 sum_k r_k X_k'X_k,

where X' is the adjoint of the jump operator X and G is the d x d
no-jump generator.  L is stored sparse (CSR); at seven sites the
superoperator is 16384 x 16384 and a dense copy would need 4.3 GB, while
fewer than 0.1% of its entries are nonzero.  Use :meth:`Liouvillian.dense`
for small systems when an explicit matrix is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .spinops import SIGMA_MINUS, SIGMA_Z, Operator, StateVector, _as_matrix, site_operator

__all__ = [
    "DissipatorKind",
    "DissipatorSpec",
    "Liouvillian",
    "vectorize",
    "unvectorize",
    "local_dissipator_superop",
    "assemble_liouvillian",
    "decoherence_channels",
    "reachable",
    "propagate",
]


class DissipatorKind(Enum):
    SPIN_LADDER = "SpinLadder"
    DECAY_T1 = "Decay_T1"
    DEPHASE_T2 = "Dephase_T2"
    FERMION_LADDER = "FermionLadder"


@dataclass(frozen=True)
class DissipatorSpec:
    """One local bath channel.

    ``lam`` is the bath occupation: a SpinLadder channel applies
    sigma_+ at rate gamma*lam and sigma_- at rate gamma*(1-lam), so
    lam = 0.5 drives the site toward the maximally mixed state and
    lam = 0 toward |down>.  For Decay_T1 / Dephase_T2 / FermionLadder
    the jump rate is gamma alone and lam is ignored except for
    FermionLadder, which mirrors the ladder structure with fermionic
    operators.
    """

    site: int
    gamma: float
    lam: float = 0.0
    kind: DissipatorKind = DissipatorKind.SPIN_LADDER

    def __post_init__(self):
        if not isinstance(self.kind, DissipatorKind):
            object.__setattr__(self, "kind", DissipatorKind(self.kind))
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if self.site < 1:
            raise ValueError(f"site must be a positive index, got {self.site}")


def vectorize(rho) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    m = _as_matrix(rho)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"vectorize expects a square matrix, got shape {m.shape}")
    return m.reshape(-1, order="F")


def unvectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(v, dtype=complex).ravel()
    d = int(round(np.sqrt(vec.shape[0])))
    if d * d != vec.shape[0]:
        raise ValueError(f"vector length {vec.shape[0]} is not a perfect square")
    return vec.reshape(d, d, order="F")


def _kron(A: np.ndarray, B: np.ndarray):
    """(rows, cols, values) of the nonzero entries of kron(A, B), for dense d x d A and B."""
    ai, aj, bi, bj = (k.astype(np.int32) for k in (*np.nonzero(A), *np.nonzero(B)))
    rows, cols = (ai[:, None] * len(B) + bi).ravel(), (aj[:, None] * len(B) + bj).ravel()
    return rows, cols, (A[ai, aj][:, None] * B[bi, bj]).ravel()


def _superop(H, jumps, dim: int) -> sp.csr_matrix:
    """L = I kron G + conj(G) kron I + sum r conj(X) kron X of (rate, X) pairs, one CSR build.

    One vector holds L's diagonal: diag(G) of both kron terms and every diagonal jump, folded.
    """
    G = np.zeros((dim, dim), dtype=complex) if H is None else -1j * H
    diag, terms = np.zeros(dim * dim, dtype=complex), []
    for r, X in jumps:
        G -= 0.5 * r * (X.conj().T @ X)
        rows, cols, vals = _kron(X.conj(), X)
        if np.array_equal(rows, cols):
            diag[rows] += r * vals
        else:
            terms.append((rows, cols, r * vals))
    g, eye, kk = G.diagonal(), np.eye(dim), np.arange(dim * dim, dtype=np.int32)
    off = G - np.diag(g)
    terms += [(kk, kk, diag + (g.conj()[:, None] + g).ravel()), _kron(eye, off), _kron(off.conj(), eye)]
    rows, cols, vals = (np.concatenate(t) for t in zip(*terms))
    del terms, diag
    out = sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))
    out.eliminate_zeros()
    return out


def _jumps(dissipators, n_sites: int):
    """Yield (rate, X) of every jump with a nonzero rate; the one place that knows the DissipatorKinds.

    A ladder applies X' at rate gamma*lam and X at gamma*(1-lam); fermions are built once per call.
    """
    fermions = None
    for s in dissipators:
        if s.site > n_sites:
            raise ValueError(f"site {s.site} out of range for {n_sites} sites")
        if s.kind is DissipatorKind.FERMION_LADDER:
            from .jordanwigner import jw_fermions  # deferred: jordanwigner imports this module

            fermions = jw_fermions(n_sites) if fermions is None else fermions
            X = fermions[s.site - 1].matrix
        else:
            local = SIGMA_Z if s.kind is DissipatorKind.DEPHASE_T2 else SIGMA_MINUS
            X = site_operator(n_sites, s.site, local).matrix
        ladder = s.kind in (DissipatorKind.SPIN_LADDER, DissipatorKind.FERMION_LADDER)
        pairs = [(s.gamma * s.lam, X.conj().T), (s.gamma * (1.0 - s.lam), X)] if ladder else [(s.gamma, X)]
        yield from ((r, X) for r, X in pairs if r != 0.0)


def jump_superop(L, rate: float = 1.0) -> sp.csr_matrix:
    """Vectorized dissipator rate*(L.L' - 1/2 {L'L, .}) for jump operator L."""
    X = _as_matrix(L)
    return _superop(None, [(rate, X)], len(X))


def hamiltonian_superop(H) -> sp.csr_matrix:
    """The coherent part -i(I kron H - H^T kron I)."""
    Hm = _as_matrix(H)
    return _superop(Hm, (), len(Hm))


def local_dissipator_superop(spec: DissipatorSpec, n_sites: int) -> sp.csr_matrix:
    """Superoperator matrix of one local bath channel on an n-spin register."""
    return _superop(None, _jumps([spec], n_sites), 2**n_sites)


class Liouvillian:
    """A sparse master-equation generator."""

    __slots__ = ("matrix", "dim", "hilbert_dim")

    def __init__(self, matrix: sp.spmatrix):
        m = sp.csr_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("Liouvillian must be square")
        self.matrix = m
        self.dim = m.shape[0]
        self.hilbert_dim = int(round(np.sqrt(self.dim)))
        if self.hilbert_dim**2 != self.dim:
            raise ValueError(f"superoperator dimension {self.dim} is not a perfect square")

    @property
    def n_sites(self) -> int:
        return self.hilbert_dim.bit_length() - 1

    def apply(self, rho) -> np.ndarray:
        """The map rho -> d rho/dt as a matrix."""
        return unvectorize(self.matrix @ vectorize(rho))

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def restrict(self, idx):
        """``(R, Q)``: the block at vec indices ``idx`` in real Hermitian coordinates.

        Q is the sparse unitary whose columns, in ``idx`` order, are e_k for a
        population k and (e_rc + e_cr)/sqrt(2), i(e_rc - e_cr)/sqrt(2) for a pair
        r < c.  As L maps Hermitian matrices to Hermitian ones, R = Q^dag L[idx][:, idx] Q
        is real CSR.  ValueError unless ``idx`` is closed under (r, c) -> (c, r)."""
        idx = np.asarray(idx, dtype=np.int64)
        n, d, ar = idx.size, self.hilbert_dim, np.arange(idx.size)
        col, row = np.divmod(idx, d)
        pos = np.full(self.dim, -1)
        pos[idx] = ar
        p = pos[row * d + col]  # the position of (c, r)
        if np.any(p < 0):
            raise ValueError("index set is not closed under the transposition (r, c) -> (c, r)")
        # Q[i, i] = own[i] and Q[i, p[i]] = far[p[i]]
        s, sides = np.sqrt(0.5), [row < col, row > col]
        own, far = np.select(sides, [s, -1j * s], 1.0), np.select(sides, [s, 1j * s], 0.0)
        Q = sp.csr_matrix((np.r_[own, far[p]], (np.r_[ar, ar], np.r_[ar, p])), shape=(n, n))
        R = (Q.conj().T @ self.matrix[idx][:, idx] @ Q).real.tocsr()
        R.eliminate_zeros()
        return R, Q

    def __repr__(self):
        return f"Liouvillian(dim={self.dim}, nnz={self.matrix.nnz})"


def assemble_liouvillian(H, dissipators) -> Liouvillian:
    """Build L = -i[H, .] + sum of local dissipator channels.

    ``H`` may be None for purely dissipative evolution; otherwise it must
    be square with a power-of-two dimension.  All dissipator sites must
    fit the Hamiltonian register.
    """
    dissipators = tuple(dissipators)
    if H is None and not dissipators:
        raise ValueError("need a Hamiltonian or at least one dissipator")
    Hm = None if H is None else (H if isinstance(H, Operator) else Operator(H)).matrix
    dim = 2 ** max(d.site for d in dissipators) if H is None else Hm.shape[0]
    return Liouvillian(_superop(Hm, _jumps(dissipators, dim.bit_length() - 1), dim))


def decoherence_channels(n_sites: int, T: float) -> list[DissipatorSpec]:
    """Uniform single-spin noise: decay at rate 1/T, dephasing at 1/(4T).

    Models equal lifetimes T = T1 = T2 on every site; append the result
    to the boundary-drive dissipators before assembly.
    """
    if not T > 0:
        raise ValueError(f"lifetime T must be positive, got {T}")
    rates = ((1.0 / T, DissipatorKind.DECAY_T1), (1.0 / (4.0 * T), DissipatorKind.DEPHASE_T2))
    return [DissipatorSpec(site=site, gamma=g, kind=k) for site in range(1, n_sites + 1) for g, k in rates]


def _as_density_vec(rho0) -> np.ndarray:
    if isinstance(rho0, StateVector):
        rho0 = rho0.density()
    m = _as_matrix(rho0)
    if abs(np.trace(m) - 1.0) > 1e-10:
        raise ValueError("initial state must have unit trace")
    if np.linalg.norm(m - m.conj().T) > 1e-12 * np.linalg.norm(m):
        raise ValueError("initial state must be Hermitian")
    return vectorize(0.5 * (m + m.conj().T))


def reachable(L: Liouvillian, seeds) -> np.ndarray:
    """Sorted vec indices reached from ``seeds`` along L's nonzero pattern.

    Column j of L is nonzero only at rows reached from j, so the span of
    the returned unit vectors is exactly invariant under L and exp(Lt);
    no tolerance and no model knowledge enter.
    """
    m, n = L.matrix, L.dim
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    # edge j -> i per stored L[i, j], weighted by ones (csgraph takes real
    # weights, and L's real parts vanish at its imaginary entries); a virtual
    # node n feeds every seed, so one search covers them all
    src = np.concatenate([m.indices, np.full(seeds.size, n)])
    dst = np.concatenate([np.repeat(np.arange(n), np.diff(m.indptr)), seeds])
    graph = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n + 1, n + 1))
    order = csgraph.breadth_first_order(graph, n, return_predecessors=False)
    return np.sort(order[1:])


def _dense_is_cheaper(R, ts: np.ndarray) -> bool:
    """Whether one dense expm(R*step) per run of equal steps beats Krylov over the grid ts.

    Dense costs ~n^3 per squaring; Krylov does ~|R|_1*span matvecs of nnz(R) plus ~2e4 (the Python
    work of expm_multiply per matvec).  40 converts units; both fitted on 262- to 4096-dim blocks."""
    keys, norm = np.round(np.diff(ts, prepend=0.0), 12), spla.norm(R, 1)
    steps = keys[np.r_[True, np.diff(keys) != 0] & (keys > 0)]
    dense = R.shape[0] ** 3 * np.sum(1 + np.log2(1 + norm * steps))
    return dense < 40.0 * norm * ts[-1] * (R.nnz + 2e4)


def propagate(L: Liouvillian, rho0, times) -> list[Operator]:
    """Evolve rho0 along the given sorted time grid.

    Returns the trajectory [rho(t) for t in times].  A time grid that
    starts after 0 is honored: the state is first evolved to times[0].
    rho0 must have unit trace and be Hermitian to 1e-12 of its norm.
    Only the block :func:`reachable` from the support of vec(rho0) is
    evolved, in the real coordinates of :meth:`Liouvillian.restrict`, on the
    exact route an estimate finds cheaper: per run of equal steps, one dense
    ``scipy.linalg.expm`` then a matvec per point (the Delta = 100 gate), or
    one Krylov ``expm_multiply``, whose norm estimates run on a fixed seed of
    numpy's global RNG, restored afterwards: equal inputs, equal trajectories.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a nonempty 1-D grid")
    if np.any(np.diff(ts) < 0) or ts[0] < 0:
        raise ValueError("times must be sorted and nonnegative")
    v = _as_density_vec(rho0)
    idx = reachable(L, np.flatnonzero(v))
    R, Q = L.restrict(idx)
    u = (Q.conj().T @ v[idx]).real

    keys = np.round(np.diff(ts, prepend=0.0), 12)
    dense, out = _dense_is_cheaper(R, ts), []
    for run in np.split(np.arange(ts.size), np.flatnonzero(np.diff(keys)) + 1):
        span = ts[run[-1]] - (ts[run[0] - 1] if run[0] else 0.0)
        if keys[run[0]] == 0.0:
            states = [u] * run.size
        elif dense:  # one expm per run of equal steps (a uniform grid has one)
            E = la.expm(span / run.size * R.toarray())
            states = [u := E @ u for _ in run]
            del E
        else:
            # expm_multiply's norm estimates draw probe vectors from numpy's
            # global RNG: seed it for this call only, so trajectories repeat
            rng_state = np.random.get_state()
            np.random.seed(0x5D10DE)
            try:
                states = spla.expm_multiply(R, u, start=0.0, stop=span, num=run.size + 1, endpoint=True)[1:]
            finally:
                np.random.set_state(rng_state)
        for t, state in zip(ts[run], states):
            if not np.all(np.isfinite(state)):
                raise FloatingPointError(f"non-finite state encountered at t = {t}")
            full = np.zeros(L.dim, dtype=complex)
            full[idx] = Q @ state
            out.append(Operator(unvectorize(full)))
        u = states[-1]
    return out

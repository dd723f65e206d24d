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

from .spinops import SIGMA_MINUS, SIGMA_Z, Operator, StateVector, _as_matrix, _jw_annihilator, site_operator

__all__ = [
    "DissipatorKind",
    "DissipatorSpec",
    "Liouvillian",
    "vectorize",
    "unvectorize",
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


def _kron(A: np.ndarray, B: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """Write the nonzero entries of kron(A, B), for dense d x d A and B, into 1-D rows, cols, vals.

    Each takes nnz(A) nnz(B) entries: a contiguous slice of the arrays being filled, so the
    reshaped views below write through to it."""
    ai, aj, bi, bj = (k.astype(np.int32) for k in (*np.nonzero(A), *np.nonzero(B)))
    shape = (ai.size, bi.size)
    np.add(ai[:, None] * len(B), bi, out=rows.reshape(shape))
    np.add(aj[:, None] * len(B), bj, out=cols.reshape(shape))
    np.multiply(A[ai, aj][:, None], B[bi, bj], out=vals.reshape(shape))


def _table(pairs):
    """Jump table (ids, rows, cols, values, rates) of the nonzero entries of dense (rate, X) pairs."""
    nonzeros = [(k, r, X, *np.nonzero(X)) for k, (r, X) in enumerate(pairs)]
    parts = [(np.full(i.size, k), i, j, X[i, j], np.full(i.size, r)) for k, r, X, i, j in nonzeros]
    return tuple(map(np.concatenate, zip(*parts))) or (np.empty(0),) * 5


def _pairs(jumps):
    """Every pair (s, t) of entries in one jump of a table, as (a_s, a_t, b_s, b_t, w).

    ``jumps`` is a table (ids, rows, cols, values, rates) whose entries s, those of one jump
    adjacent, make X_k = sum over s in k of sqrt(r_s) v_s |a_s><b_s|; entries at rate 0 drop out.
    Each pair weighs w = sqrt(r_s r_t) conj(v_s) v_t: X_k rho X_k' gains w rho[b_t, b_s] at
    [a_t, a_s], and X_k'X_k gains w at [b_s, b_t] when a_s = a_t.
    """
    keep = jumps[4] != 0.0
    ids, v, r = jumps[0][keep], jumps[3][keep], jumps[4][keep]
    a, b = (x[keep].astype(np.int32) for x in jumps[1:3])
    # entry s pairs with the n entries lo .. lo + n - 1 of its jump; int32 and in-place
    # products keep the pair arrays below the peak of the CSR build that follows
    start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    size = np.diff(np.r_[start, ids.size])
    n, lo = np.repeat(size, size), np.repeat(start, size)
    s = np.repeat(np.arange(ids.size, dtype=np.int32), n)
    t = np.arange(s.size, dtype=np.int32) + np.repeat((lo - np.cumsum(n) + n).astype(np.int32), n)
    w = v[s].conj()
    w *= v[t]
    # times sqrt(r_s r_t): exactly r_s when equal, and no underflow for tiny rates
    w *= np.where(r[s] == r[t], r[s], np.sqrt(r[s]) * np.sqrt(r[t]))
    return a[s], a[t], b[s], b[t], w


def _superop(H, pairs, dim: int) -> sp.csr_matrix:
    """L = I kron G + conj(G) kron I + sum_k conj(X_k) kron X_k for a pair table, one CSR build.

    See :func:`_pairs` for the table.  Pair (s, t) puts w at L[a_s d + a_t, b_s d + b_t], and -w/2
    at G[b_s, b_t] when a_s = a_t (G = -iH - 1/2 sum X'X).  The entries come in the order the CSR
    build sums them: the pairs off L's diagonal; L's diagonal (diag(G) of both kron terms and every
    pair that lands on it, folded into one vector over all dim^2 indices); the kron terms of G's
    off-diagonal part.
    """
    a_s, a_t, b_s, b_t, w = pairs
    rows, cols, same = a_s * dim + a_t, b_s * dim + b_t, a_s == a_t
    G = np.zeros((dim, dim), dtype=complex) if H is None else -1j * H
    np.add.at(G, (b_s[same], b_t[same]), -0.5 * w[same])
    del pairs, a_s, a_t, b_s, b_t, same
    diag, on = np.zeros(dim * dim, dtype=complex), rows == cols
    np.add.at(diag, rows[on], w[on])
    g = G.diagonal()
    off = G - np.diag(g)
    # preallocated COO arrays, filled term by term in that order, with no concatenated copy; each
    # pair array is dropped once its entries off the diagonal are copied into its COO array
    n_kron = dim * np.count_nonzero(off)
    ends = np.cumsum([0, on.size - np.count_nonzero(on), dim * dim, n_kron, n_kron])
    pair_arrays, coo = [rows, cols, w], []
    del rows, cols, w
    for other in (np.int32, np.int32, complex):  # the dtype of the other terms' entries
        x = pair_arrays.pop(0)
        coo.append(np.empty(ends[-1], dtype=np.result_type(x, other)))
        coo[-1][:ends[1]] = x[~on]
    del x, on

    def term(k):  # the rows, cols and values of term k
        return [x[ends[k]:ends[k + 1]] for x in coo]

    kk, kk_cols, vals = term(1)
    kk[:] = kk_cols[:] = np.arange(dim * dim)
    np.add(diag, (g.conj()[:, None] + g).ravel(), out=vals)
    _kron(np.eye(dim), off, *term(2))
    _kron(off.conj(), np.eye(dim), *term(3))
    out = sp.csr_matrix((coo[2], (coo[0], coo[1])), shape=(dim * dim, dim * dim))
    out.eliminate_zeros()
    return out


def _jumps(dissipators, n_sites: int):
    """Jump table of the local channels; the one place that knows the DissipatorKinds.

    A ladder applies X' at rate gamma*lam and X at gamma*(1-lam).
    """
    pairs = []
    for s in dissipators:
        if s.site > n_sites:
            raise ValueError(f"site {s.site} out of range for {n_sites} sites")
        if s.kind is DissipatorKind.FERMION_LADDER:
            X = _jw_annihilator(n_sites, s.site)
        else:
            local = SIGMA_Z if s.kind is DissipatorKind.DEPHASE_T2 else SIGMA_MINUS
            X = site_operator(n_sites, s.site, local).matrix
        ladder = s.kind in (DissipatorKind.SPIN_LADDER, DissipatorKind.FERMION_LADDER)
        pairs += [(s.gamma * s.lam, X.conj().T), (s.gamma * (1.0 - s.lam), X)] if ladder else [(s.gamma, X)]
    return _table(pairs)


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

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def restrict(self, idx):
        """``(R, Q)``: the block at vec indices ``idx`` in real Hermitian coordinates.

        Q is the sparse unitary whose columns, in ``idx`` order, are e_k for a
        population k and (e_rc + e_cr)/sqrt(2), i(e_rc - e_cr)/sqrt(2) for a pair
        r < c.  As L maps Hermitian matrices to Hermitian ones, R = Q^dag L[idx][:, idx] Q
        is real CSR.  ValueError unless ``idx`` is closed under (r, c) -> (c, r) and the
        imaginary part of R stays within 1e-12 of its largest entry."""
        idx, d = np.asarray(idx, dtype=np.int64), self.hilbert_dim
        n, ar = idx.size, np.arange(idx.size)
        col, row = np.divmod(idx, d)
        pos = np.full(d * d, -1)
        pos[idx] = ar
        p = pos[row * d + col]  # the position of (c, r)
        if np.any(p < 0):
            raise ValueError("index set is not closed under the transposition (r, c) -> (c, r)")
        # Q[i, i] = own[i] and Q[i, p[i]] = far[p[i]]
        s, sides = np.sqrt(0.5), [row < col, row > col]
        own, far = np.select(sides, [s, -1j * s], 1.0), np.select(sides, [s, 1j * s], 0.0)
        Q = sp.csr_matrix((np.r_[own, far[p]], (np.r_[ar, ar], np.r_[ar, p])), shape=(n, n))
        B = Q.conj().T @ self.matrix[idx][:, idx] @ Q
        if B.nnz and np.abs(B.data.imag).max() > 1e-12 * np.abs(B.data).max():
            raise ValueError("L does not preserve Hermiticity: its block is not real in Hermitian coordinates")
        R = B.real.tocsr()
        R.eliminate_zeros()
        return R, Q

    def __repr__(self):
        return f"Liouvillian(dim={self.dim}, nnz={self.matrix.nnz})"


def assemble_liouvillian(H, dissipators) -> Liouvillian:
    """Build L = -i[H, .] + sum of local dissipator channels.

    ``H`` may be None for purely dissipative evolution; otherwise it must
    be Hermitian (to 1e-10) and square with a power-of-two dimension.
    All dissipator sites must fit the Hamiltonian register.
    """
    dissipators = tuple(dissipators)
    if H is None and not dissipators:
        raise ValueError("need a Hamiltonian or at least one dissipator")
    Hm = None if H is None else (H if isinstance(H, Operator) else Operator(H)).matrix
    if Hm is not None and np.max(np.abs(Hm - Hm.conj().T)) > 1e-10:
        raise ValueError("H must be Hermitian")
    dim = 2 ** max(d.site for d in dissipators) if H is None else Hm.shape[0]
    return Liouvillian(_superop(Hm, _pairs(_jumps(dissipators, dim.bit_length() - 1)), dim))


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

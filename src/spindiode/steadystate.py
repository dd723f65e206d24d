"""Steady states, Liouvillian spectra and convergence diagnostics.

Steady states are null vectors of the Liouvillian.  Two routes are
provided, trading generality for speed:

* a shift-inverted Arnoldi solve for the eigenvalues nearest zero, as
  many as the null space needs, on each weakly connected block of L in
  turn (:func:`steady_states`: degeneracy counting at every size),
* a trace-constrained sparse linear solve (:func:`steady_state_solve`:
  fastest; valid only when the steady state is unique, which it is for
  delta != 0).

:func:`spectrum` returns every eigenvalue, from the dense spectra of the
strongly connected blocks of L: real ones, or one of each conjugate pair.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .liouville import Liouvillian, propagate, reachable, unvectorize, vectorize
from .spinops import Operator, StateVector, fidelity_mixed

__all__ = [
    "SteadyStateResult",
    "steady_states",
    "steady_state_solve",
    "spectrum",
    "convergence_fidelity",
]

# null |eigenvalue| bounds, as fractions of ||L||_inf: on L (times max(||L||_inf, 1)), and on the
# population block, where true ones stay below 3.3e-16 and the slowest heat mode lies at 9.5e-15
_NULL_RTOL = 1e-9
_BLOCK_NULL_RTOL = 1e-15
_MAX_REFINE = 10
# the shift of every shift-inverted eigs call, as a fraction of max(||L||_inf, 1); steady_states
# skips Arnoldi on a block whose eigenvalue nearest the shift lies farther than _FAR_RTOL of it
# away (a null one lies at the shift's own distance), as _INVERSE_STEPS inverse-iteration
# solves estimate: blocks with a null vector read the shift from the third solve on
_SHIFT_RTOL = 1e-6
_FAR_RTOL = 1e-5
_INVERSE_STEPS = 4


@dataclass
class SteadyStateResult:
    """Null-space data of a Liouvillian.

    ``rho_ss`` is the (Hermitized, trace-normalized, positivity-checked)
    steady state; with ``degeneracy > 1`` it is the full-support mixture
    (Frobenius projection of the identity onto the fixed space) and
    ``rho_all`` holds the extreme sector states instead.
    """

    rho_ss: Operator
    residual: float
    degeneracy: int
    null_tol: float
    method: str
    rho_all: list[Operator] = field(default_factory=list)


def _repair_psd(rho: np.ndarray) -> np.ndarray:
    """Clip tiny negative eigenvalues; refuse genuinely indefinite states."""
    w, v = np.linalg.eigh(rho)
    if w.min() < -1e-8:
        raise ValueError(f"steady state has a negative eigenvalue {w.min():.3e}")
    clip = (w >= -1e-10) & (w < 0.0)
    if clip.any():
        w = w.copy()
        w[clip] = 0.0
        rho = (v * w) @ v.conj().T
        rho = rho / np.trace(rho).real
    return rho


def _orthonormal_span(mats: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the real span of Hermitian matrices.

    One SVD over the reals (real and imaginary parts stacked, so the inner
    product is Re tr(a^dag b)); directions with singular value <= ``tol``
    are dropped as rank noise.
    """
    X = np.array([m.ravel() for m in mats])
    _, s, vt = np.linalg.svd(np.hstack([X.real, X.imag]), full_matrices=False)
    n = X.shape[1]
    return [(v[:n] + 1j * v[n:]).reshape(mats[0].shape) for v in vt[s > tol]]


# MMD column orderings (SuperLU perm_c) by digest of the stored pattern of A, oldest out past _MAX_ORDERINGS
_ORDERINGS: dict[bytes, np.ndarray] = {}
_MAX_ORDERINGS = 32


def _splu(A: sp.spmatrix):
    """b -> A^-1 b (1-D or 2-D b) by SuperLU in symmetric mode, in a cached MMD ordering q.

    L's pattern is nearly symmetric, so minimum degree on A + A^T fills less than COLAMD.  That
    ordering reads only the pattern, which a sweep's points share, so it is found once per
    pattern and A is always factored as A[q][:, q] in NATURAL order: its bits do not depend on
    what the table holds.  The key is A's own pattern, finer than A + A^T's but far cheaper to
    digest (and MMD's tie-breaks read it).  A wrong entry costs fill, never accuracy: SuperLU
    still pivots, and steady_state_solve refines.
    """
    A, opts = A.tocsc(), dict(diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    key = hashlib.blake2b(A.indptr.tobytes() + A.indices.tobytes(), digest_size=16).digest()
    p = _ORDERINGS.get(key)
    if p is None:
        # an incomplete LU that drops all fill runs the same MMD preordering for a fraction of a
        # full LU's cost; ones on A's pattern plus a dominant diagonal (which MMD ignores) keep it
        # nonsingular.  perm_c[i] = j puts column i of A at position j; a copy, as it views the ILU.
        P = sp.csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape) + A.nnz * sp.eye(A.shape[0])
        p = spla.spilu(P.tocsc(), drop_tol=1.0, fill_factor=1, permc_spec="MMD_AT_PLUS_A", **opts).perm_c.copy()
        if len(_ORDERINGS) >= _MAX_ORDERINGS:
            del _ORDERINGS[next(iter(_ORDERINGS))]
        _ORDERINGS[key] = p
    q = np.argsort(p)
    lu = spla.splu(A[q][:, q], permc_spec="NATURAL", **opts)
    return lambda b: lu.solve(b[q])[p]  # A[q][:, q] x[q] = b[q], and p inverts q


def _eigs_near_zero(M: sp.spmatrix, scale: float, tol: float, return_eigenvectors: bool = True, shifted=None):
    """``spla.eigs`` output for the eigenvalues of M nearest zero, and the indices of those below ``tol``.

    M is L's matrix or an invariant block of it, so every eigenvalue has Re <= 0:
    the one shift sigma = 1e-6 * max(scale, 1) keeps M - sigma*I nonsingular, and
    the eigenvalues carry errors ~eps * sigma.  M - sigma*I is factored once (or
    ``shifted`` is that factorization's solve); k = 4 doubles, up to n - 2, while
    every computed eigenvalue is below ``tol``.  ``ncv`` grows with k: scipy's
    max(2k + 1, 20) stalls ARPACK on degenerate spectra at k = 16.
    """
    n, sigma = M.shape[0], _SHIFT_RTOL * max(scale, 1.0)
    if shifted is None:
        shifted = _splu(M - sigma * sp.eye(n, dtype=M.dtype))
    OPinv = spla.LinearOperator(M.shape, shifted, dtype=M.dtype)
    k = min(4, n - 2)
    while True:
        out = spla.eigs(M, k=k, sigma=sigma, which="LM", ncv=min(n, max(20, 3 * k)), OPinv=OPinv,
                        v0=np.ones(n), return_eigenvectors=return_eigenvectors)
        null_idx = np.flatnonzero(np.abs(out[0] if return_eigenvectors else out) < tol)
        if len(null_idx) < k or k == n - 2:
            return out, null_idx
        k = min(2 * k, n - 2)


def _blocks(m: sp.spmatrix) -> list[np.ndarray]:
    """Vec indices of the weakly connected blocks of m's stored pattern, smallest first.

    No stored entry joins two blocks, so m is their direct sum.  Blocks of at most 2 indices,
    too small for ARPACK, are gathered into one group, which also takes the next smallest
    blocks until it holds 3 indices or more (L's dimension is at least 4).
    """
    pattern = sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
    _, labels = csgraph.connected_components(pattern, directed=True, connection="weak")
    sizes = np.bincount(labels)
    order = np.argsort(sizes, kind="stable")
    cut = max(np.count_nonzero(sizes <= 2), np.searchsorted(np.cumsum(sizes[order]), 3) + 1)
    return [np.flatnonzero(np.isin(labels, order[:cut]))] + [np.flatnonzero(labels == c) for c in order[cut:]]


def _block_null_vectors(M: sp.spmatrix, scale: float, tol: float, probe: np.ndarray):
    """Null vectors (columns) of an invariant block M of L, and whether ARPACK ran out of room.

    M - sigma*I is factored once, at the shift of :func:`_eigs_near_zero`.  _INVERSE_STEPS
    inverse-iteration solves from ``probe`` through that LU estimate 1/|lambda - sigma| for the
    eigenvalue lambda nearest the shift; when it lies more than _FAR_RTOL max(scale, 1) away the
    block has no null vector and ARPACK is skipped, else :func:`_eigs_near_zero` reuses the LU.
    """
    shifted = _splu(M - _SHIFT_RTOL * max(scale, 1.0) * sp.eye(M.shape[0], dtype=M.dtype))
    x = probe
    for _ in range(_INVERSE_STEPS):
        x = shifted(x / np.linalg.norm(x))
    if np.linalg.norm(x) * _FAR_RTOL * max(scale, 1.0) < 1.0:
        return np.empty((M.shape[0], 0), dtype=complex), False
    (w, vr), null_idx = _eigs_near_zero(M, scale, tol, shifted=shifted)
    return vr[:, null_idx], len(null_idx) == len(w)


def steady_states(L: Liouvillian, method: str = "arnoldi") -> SteadyStateResult:
    """Steady state(s) of L via its eigenvalues nearest zero, one invariant block at a time.

    L is the direct sum of the weakly connected blocks of its pattern (:func:`_blocks`; the
    weak-symmetry sectors, 13 for the six-spin diode at delta = 0, the largest 924 of 4096), so
    its null space is the sum of theirs.  Each block is factored in turn at one small shift, and
    only one LU is alive at a time.  A shift-inverted Arnoldi solve on a block (complex, as the
    real Hermitian coordinates would pair each block with its transpose) finds its 4 eigenvalues
    nearest zero; those below 1e-9 times the infinity norm of L (a cheap upper bound on the
    largest eigenvalue magnitude) are null.  While all of them are null the count doubles and
    the solve repeats, up to ARPACK's limit of dim - 2.  A block whose eigenvalue nearest the
    shift lies far from it, as inverse iteration through its LU shows, skips Arnoldi
    (:func:`_block_null_vectors`).  ``method`` accepts only ``"arnoldi"``.
    The fixed space of a Lindbladian is closed under dagger, so the Hermitian
    parts M + M^dag and i(M - M^dag) of the raw null vectors span it over
    the reals; they are remixed into an orthonormal Hermitian basis before
    states are extracted, so the output does not depend on the arbitrary
    combinations the eigensolver happens to return.
    """
    if method != "arnoldi":
        raise ValueError(f"unknown method {method!r}")
    scale = spla.norm(L.matrix, np.inf)  # bounds every |eigenvalue| of L
    null_tol = _NULL_RTOL * max(scale, 1.0)
    rng = np.random.default_rng(0x5D10DE)
    ms, undercounted = [], False
    for idx in _blocks(L.matrix):
        probe = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        vr, short = _block_null_vectors(L.matrix[idx][:, idx], scale, null_tol, probe)
        undercounted |= short
        for v in vr.T:
            full = np.zeros(L.dim, dtype=complex)
            full[idx] = v / np.linalg.norm(v)
            ms.append(unvectorize(full))
    if undercounted:
        warnings.warn(
            "all computed eigenvalues of a block lie below null_tol; degeneracy may be undercounted",
            stacklevel=2,
        )
    if not ms:
        raise RuntimeError(
            f"no eigenvalue below null_tol = {null_tol:.3e}; L has no resolved steady state"
        )
    return _fixed_space_states(L, ms, null_tol)


def _fixed_space_states(L: Liouvillian, ms: list[np.ndarray], null_tol: float) -> SteadyStateResult:
    """The result of :func:`steady_states` from unit null vectors ``ms`` (as d x d matrices) of L."""
    basis = _orthonormal_span([c for m in ms for c in (m + m.conj().T, 1j * (m - m.conj().T))], 1e-6)
    degeneracy = len(basis)
    traces = np.array([np.trace(b).real for b in basis])
    tnorm = float(np.linalg.norm(traces))
    if tnorm < 1e-10:
        raise RuntimeError(
            "every null combination is traceless; L does not preserve a state"
        )
    # Frobenius projection of the identity onto the fixed space: the
    # natural full-support mixture (a positive combination of the sector
    # states, so PSD up to eigensolver noise)
    proj = sum(t * b for t, b in zip(traces, basis))
    rho_ss = Operator(_repair_psd(proj / np.trace(proj).real))

    states = [rho_ss]
    if degeneracy > 1:
        # extreme sector states: for two sectors the (unique) traceless
        # null element is rho_plus - rho_minus with orthogonal supports, so
        # its positive and negative eigenparts are exactly the extremes;
        # beyond two sectors the same split is applied along several
        # traceless directions and is only a heuristic enumeration.  The
        # directions are projections of fixed random Hermitian matrices onto
        # the traceless fixed space, so they depend on that space alone, not
        # on the basis of it that the eigensolver's vectors happened to give
        states = []
        traceless = np.array(_orthonormal_span([b - (t / tnorm**2) * proj for b, t in zip(basis, traces)], 1e-8))
        rng, d = np.random.default_rng(0x5D10DE), L.hilbert_dim
        res_tol = 100.0 * null_tol
        for _ in traceless:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            tl = np.tensordot(np.einsum("kij,ij->k", traceless.conj(), g + g.conj().T).real, traceless, 1)
            w, v = np.linalg.eigh(tl)
            for sign in (1.0, -1.0):
                part = np.clip(sign * w, 0.0, None)
                if part.sum() < 1e-10:
                    continue
                cand = (v * part) @ v.conj().T
                cand = cand / np.trace(cand).real
                if np.linalg.norm(L.matrix @ vectorize(cand)) > res_tol:
                    continue
                if any(np.abs(cand - s.matrix).max() < 1e-8 for s in states):
                    continue
                states.append(Operator(cand))
        if degeneracy > 2:
            warnings.warn(
                f"{degeneracy} steady sectors: extreme-state enumeration "
                "is heuristic beyond two",
                stacklevel=2,
            )
        if not states:
            states = [rho_ss]

    residual = float(np.linalg.norm(L.matrix @ vectorize(rho_ss)))
    return SteadyStateResult(
        rho_ss=rho_ss,
        residual=residual,
        degeneracy=degeneracy,
        null_tol=null_tol,
        method="arnoldi",
        rho_all=states,
    )


def steady_state_solve(L: Liouvillian) -> SteadyStateResult:
    """Unique steady state via a trace-constrained sparse linear solve.

    A unique steady state is the long-time limit of the maximally mixed
    state, so only the block :func:`reachable` from the populations is
    factored (924 of 4096 vec indices for the six-spin diode), in real
    arithmetic, in the Hermitian coordinates of :meth:`Liouvillian.restrict`
    (L maps Hermitian matrices to Hermitian ones, so there it is a real
    map).  The one thing the block cannot see is a steady coherence outside
    it, which can only exist beside a second steady state, on a degenerate L.

    The first row of the block becomes the trace functional and the solve
    is L' x = e_0.  Refinement runs while the correction shrinks and until
    it reaches the rounding level of x, at most _MAX_REFINE steps, each
    residual b - Ax in np.longdouble, so x does not depend on the LU's
    ordering (the gated presets agree in R and J_r to 5e-11 between MMD,
    COLAMD and the cached ordering of :func:`_splu`; one float64 step left
    1e-8).

    Much faster than eigendecomposition but assumes the null space is
    one-dimensional.  A degenerate L (e.g. delta = 0) raises instead of
    quietly returning an arbitrary member of the steady manifold; with a
    multidimensional null space the constrained matrix stays exactly
    singular (some null combination is traceless), which a random probe
    through the LU factors detects as ~1/eps amplification even when the
    particular solution happens to have a tiny residual.  Strongly
    rectifying thermal points amplify almost as hard through a genuinely
    slow relaxation mode, so a large gain only flags the point and the
    spectrum of the block near zero arbitrates: degeneracy means a second
    eigenvalue at the resolution floor, not merely a small one.  The gain
    and null bounds scale with the norms of the whole L, not of the block,
    and the final residual is checked against the whole L: in the energy
    basis of a heat chain the coherent part sets ||L||_inf outside the
    population block.
    """
    idx = reachable(L, np.arange(0, L.dim, L.hilbert_dim + 1))
    try:
        R, Q = L.restrict(idx)
    except ValueError as exc:  # L does not preserve Hermiticity
        raise RuntimeError(f"population block: {exc}") from None
    n, d = idx.size, L.hilbert_dim
    # idx[0] = 0 is the first population: row 0 of R becomes the trace row
    pop, h = np.flatnonzero(idx % (d + 1) == 0), R.indptr[1]
    A = sp.csr_matrix((np.r_[np.ones(pop.size), R.data[h:]], np.r_[pop, R.indices[h:]],
                       np.r_[0, R.indptr[1:] - h + pop.size]), shape=(n, n)).tocsc()
    b = np.r_[1.0, np.zeros(n - 1)]
    try:
        solve = _splu(A)
    except RuntimeError as exc:  # SuperLU: a failed or exactly singular factorization
        raise RuntimeError(
            f"trace-constrained system ({n} x {n} block) is singular, its LU factorization failed; "
            "the steady state is degenerate (delta = 0 or gamma = 0?) - use steady_states() instead"
        ) from exc
    x, A_ext, step = solve(b), A.astype(np.longdouble), np.inf
    for _ in range(_MAX_REFINE):
        dx = solve((b - A_ext @ x).astype(float))
        if not (size := np.abs(dx).max()) < step:
            break
        x, step = x + dx, size
        if size <= np.finfo(float).eps * np.abs(x).max():  # at the rounding level of x
            break

    scale = max(spla.norm(L.matrix, "fro"), 1.0)
    rng = np.random.default_rng(0x5D10DE)
    probe = rng.standard_normal(n)
    probe /= np.linalg.norm(probe)
    # measured gains of this real probe, invariant under uniform rescaling:
    # < 5e5 at generic unique points, 8e7 at delta = 1e-3, 2e17 to 3e17 on a
    # degenerate manifold, but also up to 8e14 at strongly rectifying thermal
    # points (h >= 7.5) whose blocked channel relaxes at ~1e-14 of the scale
    gain = float(np.linalg.norm(solve(probe))) * scale
    del solve  # A's LU: the arbitration factors R - sigma*I, and one LU at a time is enough
    if gain > 1e10:
        sscale = spla.norm(L.matrix, np.inf)
        w, null_idx = _eigs_near_zero(R, sscale, _BLOCK_NULL_RTOL * sscale, return_eigenvectors=False)
        second = float(np.sort(np.abs(w))[1])
        if len(null_idx) > 1:
            raise RuntimeError(
                f"trace-constrained system is numerically singular "
                f"(probe gain {gain:.1e}, second eigenvalue {second:.1e}); "
                "the steady state is degenerate (delta = 0?) - use "
                "steady_states() instead"
            )

    full = np.zeros(d * d, dtype=complex)
    full[idx] = Q @ x  # exactly Hermitian, as x is real
    m = unvectorize(full)
    m = m / np.trace(m).real
    rho = Operator(_repair_psd(m))
    residual = float(np.linalg.norm(L.matrix @ vectorize(rho)))
    if residual > 1e-8 * scale:
        raise RuntimeError(
            f"trace-constrained solve residual {residual:.3e} exceeds "
            f"{1e-8 * scale:.3e}; the steady state is likely degenerate "
            "(delta = 0?) - use steady_states() instead"
        )
    return SteadyStateResult(
        rho_ss=rho,
        residual=residual,
        degeneracy=1,
        null_tol=0.0,
        method="direct",
    )


def spectrum(L: Liouvillian) -> np.ndarray:
    """All 4^n eigenvalues, sorted by real part descending.

    The strongly connected components of L's nonzero pattern put L in
    block-triangular form, so this is the union of the dense spectra of the
    diagonal blocks.  As L(rho^dag) = L(rho)^dag (else ValueError), the
    transposition (r, c) -> (c, r) maps a block onto one with the conjugate
    spectrum: a self-transposed block is diagonalized in the real coordinates
    of :meth:`Liouvillian.restrict`, and of a transposed pair only one block
    (six-spin diode: largest block 924 of 4096, about 2.5 s).  For seven
    spins prefer steady_states.
    """
    m, d = L.matrix, L.hilbert_dim
    T = np.arange(L.dim).reshape(d, d).T.ravel()  # vec index of the transposed entry
    if abs(m[T][:, T] - m.conj()).max() > 1e-12 * abs(m).max():
        raise ValueError("L does not preserve Hermiticity: L(rho^dag) != L(rho)^dag")
    # ones, not values: L's values cast to real vanish at imaginary entries;
    # with the transposed pattern added, blocks map onto blocks exactly
    pattern = sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
    pattern = pattern + pattern[T][:, T]
    n_blocks, labels = csgraph.connected_components(pattern, directed=True, connection="strong")
    blocks = [np.flatnonzero(labels == c) for c in range(n_blocks)]
    w = [la.eigvals(L.restrict(i)[0].toarray()) for i in blocks if labels[T[i[0]]] == labels[i[0]]]
    z = [la.eigvals(m[i][:, i].toarray()) for i in blocks if labels[T[i[0]]] > labels[i[0]]]
    w = np.concatenate(w + z + [v.conj() for v in z])
    return w[np.argsort(-w.real)]


def convergence_fidelity(L: Liouvillian, initial, rho_ss, times) -> np.ndarray:
    """Uhlmann fidelity F(rho(t), rho_ss) along a propagated trajectory.

    ``initial`` may be a StateVector or a density Operator.  The steady
    state must be unique (resolve degeneracies before calling).
    """
    if isinstance(initial, StateVector):
        initial = initial.density()
    target = rho_ss.rho_ss if isinstance(rho_ss, SteadyStateResult) else rho_ss
    traj = propagate(L, initial, times)
    return np.array([fidelity_mixed(rho, target) for rho in traj])

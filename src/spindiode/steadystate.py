"""Steady states, Liouvillian spectra and convergence diagnostics.

Steady states are null vectors of the Liouvillian.  Two routes are
provided, trading generality for speed:

* a shift-inverted Arnoldi solve for the eigenvalues nearest zero, as
  many as the null space needs (:func:`steady_states`: degeneracy
  counting at every size),
* a trace-constrained sparse linear solve (:func:`steady_state_solve`:
  fastest; valid only when the steady state is unique, which it is for
  delta != 0).

:func:`spectrum` returns every eigenvalue, from the dense spectra of the
strongly connected blocks of L: real ones, or one of each conjugate pair.

The linear solve works in the invariant block of vec indices reachable
from the populations (:func:`spindiode.liouville.reachable`), in the real
Hermitian coordinates of :meth:`Liouvillian.restrict` (L maps Hermitian
matrices to Hermitian ones, so there it is a real map), replaces its first
row with the trace functional and solves L' x = e_0; its residual against
the full L is checked, so accidentally hitting a degenerate point
(delta = 0) fails loudly instead of returning an arbitrary mixture.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .liouville import Liouvillian, propagate, reachable, unvectorize, vectorize
from .spinops import Operator, StateVector

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


def _splu(A: sp.spmatrix):
    """SuperLU in symmetric mode: L's pattern is nearly symmetric, so it fills less than COLAMD."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01, options={"SymmetricMode": True})


def _eigs_near_zero(M: sp.spmatrix, scale: float, tol: float, return_eigenvectors: bool = True):
    """``spla.eigs`` output for the eigenvalues of M nearest zero, and the indices of those below ``tol``.

    M is L's matrix or an invariant block of it, so every eigenvalue has Re <= 0:
    the one shift sigma = 1e-6 * max(scale, 1) keeps M - sigma*I nonsingular, and
    the eigenvalues carry errors ~eps * sigma.  M - sigma*I is factored once; k = 4
    doubles, up to n - 2, while every computed eigenvalue is below ``tol``.  ``ncv``
    grows with k: scipy's max(2k + 1, 20) stalls ARPACK on degenerate spectra at k = 16.
    """
    n, sigma = M.shape[0], 1e-6 * max(scale, 1.0)
    OPinv = spla.LinearOperator(M.shape, _splu(M - sigma * sp.eye(n, dtype=M.dtype)).solve, dtype=M.dtype)
    k = min(4, n - 2)
    while True:
        out = spla.eigs(M, k=k, sigma=sigma, which="LM", ncv=min(n, max(20, 3 * k)), OPinv=OPinv,
                        v0=np.ones(n), return_eigenvectors=return_eigenvectors)
        null_idx = np.flatnonzero(np.abs(out[0] if return_eigenvectors else out) < tol)
        if len(null_idx) < k or k == n - 2:
            return out, null_idx
        k = min(2 * k, n - 2)


def steady_states(L: Liouvillian, method: str = "arnoldi") -> SteadyStateResult:
    """Steady state(s) of L via its eigenvalues nearest zero.

    A shift-inverted Arnoldi solve on the full (complex) L finds the 4
    eigenvalues nearest zero; those below 1e-9 times the infinity norm of
    L (a cheap upper bound on the largest eigenvalue magnitude) are null.
    While all of them are null the count doubles and the solve repeats, up
    to ARPACK's limit of dim - 2.  ``method`` accepts only ``"arnoldi"``.
    The fixed space of a Lindbladian is closed under dagger, so the Hermitian
    parts M + M^dag and i(M - M^dag) of the raw null vectors span it over
    the reals; they are remixed into an orthonormal Hermitian basis before
    states are extracted, so the output does not depend on the arbitrary
    combinations the eigensolver happens to return.  Arnoldi stays complex,
    as the real Hermitian coordinates of the whole space pair each sector
    with its transpose, which doubles the LU fill and slows ARPACK.
    """
    if method != "arnoldi":
        raise ValueError(f"unknown method {method!r}")
    scale = spla.norm(L.matrix, np.inf)  # bounds every |eigenvalue| of L
    null_tol = _NULL_RTOL * max(scale, 1.0)
    (w, vr), null_idx = _eigs_near_zero(L.matrix, scale, null_tol)
    if len(null_idx) == len(w):
        warnings.warn(
            f"all {len(w)} computed eigenvalues lie below null_tol; degeneracy may be undercounted",
            stacklevel=2,
        )
    if not null_idx.size:
        raise RuntimeError(
            f"no eigenvalue below null_tol = {null_tol:.3e}; L has no resolved steady state"
        )

    ms = [unvectorize(vr[:, i] / np.linalg.norm(vr[:, i])) for i in null_idx]
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
        # beyond two sectors the same split is applied pairwise and is
        # only a heuristic enumeration
        states = []
        traceless = _orthonormal_span([b - (t / tnorm**2) * proj for b, t in zip(basis, traces)], 1e-8)
        res_tol = 100.0 * null_tol
        for tl in traceless:
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
        method=method,
        rho_all=states,
    )


def steady_state_solve(L: Liouvillian) -> SteadyStateResult:
    """Unique steady state via a trace-constrained sparse linear solve.

    A unique steady state is the long-time limit of the maximally mixed
    state, so only the block :func:`reachable` from the populations is
    factored (924 of 4096 vec indices for the six-spin diode), in real
    arithmetic, in the Hermitian coordinates of :meth:`Liouvillian.restrict`.
    The one thing the block cannot see is a steady coherence outside it,
    which can only exist beside a second steady state, on a degenerate L.

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
    eigenvalue at the resolution floor, not merely a small one.  The
    final residual is checked against the full L.
    """
    diagonal = np.arange(0, L.dim, L.hilbert_dim + 1)
    idx = reachable(L, diagonal)
    n = idx.size
    try:
        R, Q = L.restrict(idx)
    except ValueError as exc:  # L does not preserve Hermiticity
        raise RuntimeError(f"population block: {exc}") from None
    # idx[0] = 0 is the first population: row 0 of R becomes the trace row
    pop, h = np.flatnonzero(idx % (L.hilbert_dim + 1) == 0), R.indptr[1]
    A = sp.csr_matrix((np.r_[np.ones(pop.size), R.data[h:]], np.r_[pop, R.indices[h:]],
                       np.r_[0, R.indptr[1:] - h + pop.size]), shape=(n, n)).tocsc()
    b = np.r_[1.0, np.zeros(n - 1)]
    try:
        lu = _splu(A)
    except RuntimeError as exc:  # SuperLU: a failed or exactly singular factorization
        raise RuntimeError(
            f"trace-constrained system ({n} x {n} block) is singular, its LU factorization failed; "
            "the steady state is degenerate (delta = 0 or gamma = 0?) - use steady_states() instead"
        ) from exc
    x = lu.solve(b)
    x += lu.solve(b - A @ x)  # one step of iterative refinement

    scale = max(spla.norm(L.matrix, "fro"), 1.0)
    rng = np.random.default_rng(0x5D10DE)
    probe = rng.standard_normal(n)
    probe /= np.linalg.norm(probe)
    # measured gains of this real probe, invariant under uniform rescaling:
    # < 5e5 at generic unique points, 8e7 at delta = 1e-3, 2e17 to 3e17 on a
    # degenerate manifold, but also up to 8e14 at strongly rectifying thermal
    # points (h >= 7.5) whose blocked channel relaxes at ~1e-14 of the scale
    gain = float(np.linalg.norm(lu.solve(probe))) * scale
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

    full = np.zeros(L.dim, dtype=complex)
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
    from .observables import fidelity_mixed  # deferred: observables imports this module

    if isinstance(initial, StateVector):
        initial = initial.density()
    target = rho_ss.rho_ss if isinstance(rho_ss, SteadyStateResult) else rho_ss
    traj = propagate(L, initial, times)
    return np.array([fidelity_mixed(rho, target) for rho in traj])

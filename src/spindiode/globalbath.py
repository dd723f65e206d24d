"""Secular global master equation for thermal (heat) transport.

The bath at site n couples through sigma_x^(n), decomposed into
eigen-operators of the chain Hamiltonian,

    A_n(omega) = sum_{omega = eps' - eps} P(eps) sigma_x^(n) P(eps'),

where P projects onto the (degeneracy-grouped) energy eigenspaces.  An
ohmic bath at temperature T drives each transition at

    rate(omega) = gamma * |omega| * (1 + N(omega))   for omega > 0,
                  gamma * |omega| * N(|omega|)       for omega < 0,
                  gamma * T                          for omega = 0,

with N the Bose-Einstein occupation, so emission and absorption obey
detailed balance rate(omega)/rate(-omega) = exp(omega/T) exactly.

Everything is assembled in the energy eigenbasis of H, where the
Hamiltonian superoperator is diagonal and the A(omega) are sparse
blocks; steady states are solved there and rotated back only at the
end.  This keeps the six-spin superoperator (4096 x 4096) comfortably
sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .liouville import Liouvillian, unvectorize, vectorize
from .models import ModelSpec, Variant, build_hamiltonian, chain_ends
from .spinops import SIGMA_X, Operator, site_operator
from .steadystate import steady_state_solve

__all__ = [
    "ThermalBathSpec",
    "GlobalDissipator",
    "HeatDiodeMetrics",
    "eigen_operators",
    "bath_rate",
    "global_dissipator",
    "assemble_global_liouvillian",
    "heat_current",
    "evaluate_heat_diode",
]


@dataclass(frozen=True)
class ThermalBathSpec:
    """One ohmic bath attached through sigma_x at ``site``.

    ``secular_cutoff`` is the width of the (omega, omega') pairing
    window; 0 keeps only equal frequencies after degeneracy grouping
    (full secular approximation).  ``degeneracy_tol`` groups eigenvalues
    (None: 1e-9 times the spectral scale).  ``include_zero_frequency``
    switches the dephasing-like omega = 0 blocks (rate gamma*T) on or
    off.
    """

    site: int
    temperature: float
    gamma: float = 1.0
    secular_cutoff: float = 0.0
    degeneracy_tol: float | None = None
    include_zero_frequency: bool = True

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.secular_cutoff < 0:
            raise ValueError(f"secular_cutoff must be nonnegative, got {self.secular_cutoff}")
        if self.site < 1:
            raise ValueError(f"site must be a positive index, got {self.site}")


def bath_rate(omega: float, T: float, gamma: float) -> float:
    """Ohmic emission/absorption rate at transition frequency omega."""
    if T <= 0:
        raise ValueError(f"temperature must be positive, got {T}")
    if omega == 0.0:
        return gamma * T
    x = abs(omega) / T
    n = 0.0 if x > 700.0 else 1.0 / math.expm1(x)
    if omega > 0:
        return gamma * abs(omega) * (1.0 + n)
    return gamma * abs(omega) * n


def _cluster(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group sorted-by-value entries closer than tol.

    Returns (labels, means): labels[i] is the cluster of values[i] and
    means[k] the mean of cluster k, in increasing order.
    """
    order = np.argsort(values)
    labels = np.empty(len(values), dtype=int)
    means = []
    current = [values[order[0]]]
    cid = 0
    labels[order[0]] = 0
    for idx in order[1:]:
        if values[idx] - current[-1] > tol:
            means.append(float(np.mean(current)))
            current = []
            cid += 1
        current.append(values[idx])
        labels[idx] = cid
    means.append(float(np.mean(current)))
    return labels, np.array(means)


class _EigenBlocks:
    """Eigen-operator decomposition of one coupling operator.

    Holds the eigenbasis (U, eps) of H and, for every distinct grouped
    transition frequency omega, the block A(omega) of the rotated
    coupling, stored sparse in the energy basis.
    """

    def __init__(self, H, coupling, degeneracy_tol: float | None, eigensystem=None):
        Cm = coupling.matrix if isinstance(coupling, Operator) else np.asarray(coupling, dtype=complex)
        if np.max(np.abs(Cm - Cm.conj().T)) > 1e-10:
            raise ValueError("coupling must be Hermitian")
        if eigensystem is None:
            Hm = H.matrix if isinstance(H, Operator) else np.asarray(H, dtype=complex)
            if np.max(np.abs(Hm - Hm.conj().T)) > 1e-10:
                raise ValueError("H must be Hermitian")
            eps, U = np.linalg.eigh(Hm)
        else:
            eps, U = eigensystem
        scale = max(float(np.abs(eps).max()), 1.0)
        if degeneracy_tol is None:
            degeneracy_tol = 1e-9 * scale
        labels, means = _cluster(eps, degeneracy_tol)

        Ct = U.conj().T @ Cm @ U
        d = Ct.shape[0]
        rows, cols = np.nonzero(np.abs(Ct) > 1e-13 * max(np.abs(Ct).max(), 1e-300))
        gaps = means[labels[cols]] - means[labels[rows]]  # omega = eps' - eps
        gap_labels, gap_means = _cluster(gaps, degeneracy_tol) if len(gaps) else (np.array([], dtype=int), np.array([]))
        # snap the group containing zero exactly to zero
        gap_means[np.abs(gap_means) <= degeneracy_tol] = 0.0

        blocks: dict[float, sp.csr_matrix] = {}
        for k, omega in enumerate(gap_means):
            mask = gap_labels == k
            A = sp.csr_matrix(
                (Ct[rows[mask], cols[mask]], (rows[mask], cols[mask])), shape=(d, d)
            )
            blocks[float(omega)] = A

        self.U = U
        self.eps = eps
        self.degeneracy_tol = degeneracy_tol
        self.blocks = blocks  # omega -> A(omega), energy basis

    def frequencies(self) -> list[float]:
        return sorted(self.blocks)


def eigen_operators(H, coupling, degeneracy_tol: float | None = None):
    """All (omega, A(omega)) pairs of a coupling operator, computational basis.

    The frequencies are the distinct eigenvalue gaps eps' - eps of H
    after grouping degenerate eigenvalues; the blocks satisfy
    sum A(omega) = coupling, A(-omega) = A(omega)^dagger and
    [H, A(omega)] = -omega A(omega).
    """
    eb = _EigenBlocks(H, coupling, degeneracy_tol)
    out = []
    for omega in eb.frequencies():
        A = eb.U @ eb.blocks[omega].toarray() @ eb.U.conj().T
        out.append((omega, Operator(A)))
    return out


def _kron_triplets(B: sp.csr_matrix, A: sp.csr_matrix, d: int):
    """COO triplets of kron(B, A) for small sparse factors."""
    Bc = B.tocoo()
    Ac = A.tocoo()
    rows = (Bc.row[:, None] * d + Ac.row[None, :]).ravel()
    cols = (Bc.col[:, None] * d + Ac.col[None, :]).ravel()
    vals = (Bc.data[:, None] * Ac.data[None, :]).ravel()
    return rows, cols, vals


@dataclass
class GlobalDissipator:
    """One bath's secular dissipator, held in the energy basis of H."""

    bath: ThermalBathSpec
    U: np.ndarray
    eps: np.ndarray
    matrix_energy: sp.csr_matrix

    def apply(self, rho) -> np.ndarray:
        """D[rho] in the computational basis."""
        m = rho.matrix if isinstance(rho, Operator) else np.asarray(rho, dtype=complex)
        rho_e = self.U.conj().T @ m @ self.U
        out_e = unvectorize(self.matrix_energy @ vectorize(rho_e))
        return self.U @ out_e @ self.U.conj().T

    def superop(self) -> np.ndarray:
        """Dense computational-basis superoperator (small systems only)."""
        W = np.kron(self.U.conj(), self.U)
        return W @ self.matrix_energy.toarray() @ W.conj().T


def _dissipator_energy(eb: _EigenBlocks, bath: ThermalBathSpec) -> sp.csr_matrix:
    """Assemble the secular dissipator from eigen-blocks, energy basis."""
    d = len(eb.eps)
    dim = d * d
    omegas = eb.frequencies()
    if not bath.include_zero_frequency:
        omegas = [w for w in omegas if w != 0.0]

    eye = sp.identity(d, dtype=complex, format="csr")
    warr = np.asarray(omegas)
    rows_acc, cols_acc, vals_acc = [], [], []
    # the no-jump terms are linear in sum_pairs rate Aj'Ai, so accumulate
    # that small d x d factor densely and kron with the identity once
    M = np.zeros((d, d), dtype=complex)
    for wi in omegas:
        Ai = eb.blocks[wi]
        rate = bath_rate(wi, bath.temperature, bath.gamma)
        if rate == 0.0:
            continue
        lo = int(np.searchsorted(warr, wi - bath.secular_cutoff, side="left"))
        hi = int(np.searchsorted(warr, wi + bath.secular_cutoff, side="right"))
        for wj in omegas[lo:hi]:
            Aj = eb.blocks[wj]
            # 1/2 rate(wi) [ Ai . Aj' + Aj . Ai' - Aj'Ai . - . Ai'Aj ]
            r, c, v = _kron_triplets(Aj.conj(), Ai, d)
            rows_acc.append(r), cols_acc.append(c), vals_acc.append(0.5 * rate * v)
            r, c, v = _kron_triplets(Ai.conj(), Aj, d)
            rows_acc.append(r), cols_acc.append(c), vals_acc.append(0.5 * rate * v)
            M += 0.5 * rate * (Aj.conj().T @ Ai).toarray()

    if rows_acc:
        sandwich = sp.csr_matrix(
            (np.concatenate(vals_acc), (np.concatenate(rows_acc), np.concatenate(cols_acc))),
            shape=(dim, dim),
        )
    else:
        sandwich = sp.csr_matrix((dim, dim), dtype=complex)
    Ms = sp.csr_matrix(M)
    # Ai'Aj = (Aj'Ai)' and transposing that for vec(rho X) gives conj(Aj'Ai)
    small = -sp.kron(eye, Ms, format="csr") - sp.kron(Ms.conj(), eye, format="csr")
    return (sandwich + small).tocsr()


def global_dissipator(H, bath: ThermalBathSpec) -> GlobalDissipator:
    """Secular thermal dissipator for a sigma_x coupling at bath.site."""
    Hm = H.matrix if isinstance(H, Operator) else np.asarray(H, dtype=complex)
    n_sites = int(Hm.shape[0]).bit_length() - 1
    coupling = site_operator(n_sites, bath.site, SIGMA_X)
    eb = _EigenBlocks(Hm, coupling, bath.degeneracy_tol)
    return GlobalDissipator(
        bath=bath, U=eb.U, eps=eb.eps, matrix_energy=_dissipator_energy(eb, bath)
    )


def assemble_global_liouvillian(H, baths) -> tuple[Liouvillian, list[GlobalDissipator]]:
    """Full generator -i[H, .] + sum of secular bath dissipators.

    Returned in the energy eigenbasis of H (the coherent part is then
    diagonal); the accompanying GlobalDissipator objects carry the basis
    for rotating states back.  All baths share one diagonalization.
    """
    Hm = H.matrix if isinstance(H, Operator) else np.asarray(H, dtype=complex)
    baths = list(baths)
    if not baths:
        raise ValueError("need at least one bath")
    if np.max(np.abs(Hm - Hm.conj().T)) > 1e-10:
        raise ValueError("H must be Hermitian")
    eigensystem = np.linalg.eigh(Hm)
    blocks = _site_blocks(Hm, baths, eigensystem)
    return _assemble_from_blocks(H, baths, blocks)


def _site_blocks(Hm, baths, eigensystem) -> dict[int, _EigenBlocks]:
    """One eigen-operator decomposition per distinct bath site."""
    n_sites = int(Hm.shape[0]).bit_length() - 1
    out: dict[int, _EigenBlocks] = {}
    for bath in baths:
        if bath.site not in out:
            coupling = site_operator(n_sites, bath.site, SIGMA_X)
            out[bath.site] = _EigenBlocks(
                Hm, coupling, bath.degeneracy_tol, eigensystem=eigensystem
            )
    return out


def _assemble_from_blocks(H, baths, blocks: dict[int, _EigenBlocks]):
    dissipators = []
    for bath in baths:
        eb = blocks[bath.site]
        dissipators.append(
            GlobalDissipator(
                bath=bath, U=eb.U, eps=eb.eps, matrix_energy=_dissipator_energy(eb, bath)
            )
        )

    eps = dissipators[0].eps
    # vec(rho) stacks columns, so the (row, col) matrix entry sits at
    # vec index col*d + row and -i[H, .] is diagonal there
    phase = -1j * (eps[:, None] - eps[None, :])
    coherent = sp.diags(phase.ravel(order="F"), format="csr")
    total = coherent
    for dis in dissipators:
        total = total + dis.matrix_energy
    return Liouvillian(total.tocsr(), source=(H, tuple(baths))), dissipators


def heat_current(H, dissipator: GlobalDissipator, rho_ss) -> float:
    """Heat flowing from one bath into the chain: K = tr(H D[rho_ss]).

    Positive K means the bath heats the chain.  In a two-bath steady
    state the currents of the baths balance, K_1 = -K_n, so either one
    determines the transported heat.
    """
    Hm = H.matrix if isinstance(H, Operator) else np.asarray(H, dtype=complex)
    return float(np.trace(Hm @ dissipator.apply(rho_ss)).real)


@dataclass
class HeatDiodeMetrics:
    """Steady-state heat currents of both biases and the rectification.

    ``balance`` holds |K(bath 1) + K(bath n)| per bias, which vanishes
    identically in a converged steady state.
    """

    K_f: float
    K_r: float
    R_Q: float
    balance: tuple[float, float] = (0.0, 0.0)
    rho_f: Operator | None = None
    rho_r: Operator | None = None


def _thermal_steady_state(H, baths, blocks) -> tuple[Operator, list[float]]:
    """Solve the global master equation; state in the computational basis."""
    L, dissipators = _assemble_from_blocks(H, baths, blocks)
    rho_energy = steady_state_solve(L).rho_ss
    U = dissipators[0].U
    rho = Operator(U @ rho_energy.matrix @ U.conj().T)
    currents = [heat_current(H, dis, rho) for dis in dissipators]
    return rho, currents


def evaluate_heat_diode(
    spec: ModelSpec,
    T_C: float = 0.1,
    T_H: float = 10.1,
    gamma: float = 1.0,
    secular_cutoff: float = 0.0,
    include_zero_frequency: bool = True,
) -> HeatDiodeMetrics:
    """Heat rectification of a thermally driven chain.

    Forward bias holds the first chain site at T_H and the last at T_C;
    reverse bias swaps the temperatures.  R_Q = -K_f / K_r with K the
    current out of the bath at site 1 (checked against the balancing
    current at the far bath).  Accepts the local-field heat variant and
    the linear reference chain.
    """
    if spec.variant not in (Variant.HEAT_HQ, Variant.LINEAR_REFERENCE):
        raise ValueError(f"heat transport is defined for Heat_HQ/LinearReference, got {spec.variant.value}")
    if T_H <= T_C:
        raise ValueError(f"need T_H > T_C, got T_H={T_H}, T_C={T_C}")
    H = build_hamiltonian(spec)
    first, last = chain_ends(spec)

    def bath(site, T):
        return ThermalBathSpec(
            site=site,
            temperature=T,
            gamma=gamma,
            secular_cutoff=secular_cutoff,
            include_zero_frequency=include_zero_frequency,
        )

    # the eigen-operator blocks depend on the site but not the bath
    # temperature, so both biases share them
    Hm = H.matrix
    eigensystem = np.linalg.eigh(Hm)
    blocks = _site_blocks(Hm, [bath(first, T_C), bath(last, T_C)], eigensystem)

    currents = []
    balance = []
    states = []
    for hot_first in (True, False):
        T1, Tn = (T_H, T_C) if hot_first else (T_C, T_H)
        rho, (k1, kn) = _thermal_steady_state(H, [bath(first, T1), bath(last, Tn)], blocks)
        currents.append(k1)
        balance.append(abs(k1 + kn))
        states.append(rho)

    K_f, K_r = currents
    R_Q = math.inf if abs(K_r) < 1e-16 else -K_f / K_r
    return HeatDiodeMetrics(
        K_f=K_f,
        K_r=K_r,
        R_Q=R_Q,
        balance=(balance[0], balance[1]),
        rho_f=states[0],
        rho_r=states[1],
    )

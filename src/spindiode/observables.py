"""Transport and entanglement diagnostics for boundary-driven chains.

Forward bias means the hot bath (lam = 0.5, incoherent mixing) sits on
the first chain site and the cold bath (lam = 0, pure decay) on the
last; reverse bias swaps them.  The rectification of the resulting
steady-state currents is R = -J_f / J_r and the contrast
C = |J_f + J_r| / |J_f - J_r|; C = 0 exactly when R = 1 and C -> 1 when
the reverse current vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liouville import DissipatorKind, DissipatorSpec, assemble_liouvillian
from .models import ModelSpec, Variant, build_hamiltonian, chain_ends, current_bonds
from .spinops import SIGMA_X, SIGMA_Y, SIGMA_Z, Operator, StateVector, _as_matrix, fidelity_mixed, site_operator
from .steadystate import SteadyStateResult, steady_state_solve

__all__ = [
    "DiodeMetrics",
    "spin_current_op",
    "rectification",
    "contrast",
    "magnetization_profile",
    "fidelity_pure",
    "fidelity_mixed",
    "concurrence",
    "bias_dissipators",
    "solve_bias",
    "diode_metrics",
    "evaluate_diode",
]


@dataclass
class DiodeMetrics:
    """Steady-state currents of both biases and the derived quality measures.

    ``continuity`` holds |first-bond minus last-bond current| per bias.
    It stays below 1e-8 for converged steady states only when the drive
    conserves the excitation number; the ShadowCorrected shadow drive
    does not, and there it can be comparable to the currents themselves.
    The steady states themselves ride along for entanglement analysis.
    """

    J_f: float
    J_r: float
    R: float
    C: float
    continuity: tuple[float, float] = (0.0, 0.0)
    rho_f: Operator | None = None
    rho_r: Operator | None = None


def spin_current_op(n_sites: int, i: int, j: int) -> Operator:
    """Current operator j_ij = 2(sx_i sy_j - sy_i sx_j), in units of J.

    Defined so that d<sz_i>/dt = -<j_ij> under the bond (i, j) alone;
    positive expectation means excitations flow from i to j.
    """
    xy = site_operator(n_sites, i, SIGMA_X).matrix @ site_operator(n_sites, j, SIGMA_Y).matrix
    yx = site_operator(n_sites, i, SIGMA_Y).matrix @ site_operator(n_sites, j, SIGMA_X).matrix
    return Operator(2.0 * (xy - yx))


def rectification(J_f: float, J_r: float) -> float:
    """R = -J_f / J_r; +inf when the reverse current is below 1e-14."""
    if abs(J_r) < 1e-14:
        return math.inf
    return -J_f / J_r


def contrast(J_f: float, J_r: float) -> float:
    """C = |J_f + J_r| / |J_f - J_r|; nan when the currents coincide."""
    denom = abs(J_f - J_r)
    if denom == 0.0:
        return math.nan
    return abs(J_f + J_r) / denom


def magnetization_profile(rho) -> np.ndarray:
    """<sigma_z^(n)> for every site, as a real vector."""
    m = _as_matrix(rho)
    n = int(m.shape[0]).bit_length() - 1
    if 2**n != m.shape[0]:
        raise ValueError("density matrix dimension is not a power of two")
    out = np.empty(n)
    for site in range(1, n + 1):
        out[site - 1] = np.trace(site_operator(n, site, SIGMA_Z).matrix @ m).real
    return out


def fidelity_pure(rho, psi: StateVector) -> float:
    """Overlap <psi| rho |psi>."""
    m = _as_matrix(rho)
    v = psi.amplitudes
    return float(np.real(v.conj() @ m @ v))


def concurrence(rho) -> float:
    """Wootters concurrence of a two-spin density matrix.

    lambda_i are the square roots of the eigenvalues of
    rho (sy kron sy) rho* (sy kron sy), in decreasing order; the
    concurrence is max(0, l1 - l2 - l3 - l4).
    """
    m = _as_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 two-spin state, got {m.shape}")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    w = np.linalg.eigvals(m @ yy @ m.conj() @ yy)
    lam = np.sort(np.sqrt(np.clip(w.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def bond_current(rho, n_sites: int, bond: tuple[int, int]) -> float:
    op = spin_current_op(n_sites, *bond)
    m = _as_matrix(rho)
    return float(np.trace(op.matrix @ m).real)


def bias_dissipators(
    spec: ModelSpec, gamma: float = 1.0, extra_dissipators=()
) -> tuple[list[DissipatorSpec], list[DissipatorSpec]]:
    """Forward and reverse channel lists of a spin-chain variant.

    Each starts with the hot (lam = 0.5) and cold (lam = 0) ladder baths
    on the chain ends, hot first: forward bias puts the hot bath on the
    first end of :func:`chain_ends`, reverse bias on the last.  Then come
    the ShadowCorrected shadow-qubit decay at rate spec.gamma_S and
    ``extra_dissipators`` unchanged.  The fermionic chain takes the same
    lists with fermion ladders in place of spin ladders.
    """
    first, last = chain_ends(spec)
    shadow = []
    if spec.variant is Variant.SHADOW_CORRECTED:
        shadow = [DissipatorSpec(site=7, gamma=spec.gamma_S, kind=DissipatorKind.DECAY_T1)]
    fixed = shadow + list(extra_dissipators)
    return tuple(
        [DissipatorSpec(site=hot, gamma=gamma, lam=0.5), DissipatorSpec(site=cold, gamma=gamma, lam=0.0)] + fixed
        for hot, cold in ((first, last), (last, first))
    )


def solve_bias(H, dissipators, current_ops) -> tuple[SteadyStateResult, float, float]:
    """Steady state of H under one bias, its current and the current's continuity.

    ``current_ops`` holds the first- and last-bond current operators.  The
    current is the mean of the two bond currents, the continuity their
    absolute difference.
    """
    result = steady_state_solve(assemble_liouvillian(H, dissipators))
    rho = result.rho_ss.matrix
    j_first, j_last = (float(np.trace(op.matrix @ rho).real) for op in current_ops)
    return result, 0.5 * (j_first + j_last), abs(j_first - j_last)


def diode_metrics(H, biases, current_ops) -> DiodeMetrics:
    """Solve the forward and reverse channel lists with :func:`solve_bias` and form R and C."""
    (res_f, J_f, cont_f), (res_r, J_r, cont_r) = (solve_bias(H, d, current_ops) for d in biases)
    return DiodeMetrics(
        J_f=J_f,
        J_r=J_r,
        R=rectification(J_f, J_r),
        C=contrast(J_f, J_r),
        continuity=(cont_f, cont_r),
        rho_f=res_f.rho_ss,
        rho_r=res_r.rho_ss,
    )


def evaluate_diode(spec: ModelSpec, gamma: float = 1.0, extra_dissipators=()) -> DiodeMetrics:
    """Solve both bias directions of a variant and report currents, R and C.

    The baths are placed by :func:`bias_dissipators`; ``extra_dissipators``
    (e.g. decoherence_channels) are appended to both biases unchanged.
    """
    H = build_hamiltonian(spec)
    ops = [spin_current_op(spec.n_sites, *bond) for bond in current_bonds(spec)]
    return diode_metrics(H, bias_dissipators(spec, gamma, extra_dissipators), ops)

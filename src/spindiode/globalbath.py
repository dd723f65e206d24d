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

Each bath dissipates in GKLS form: every single-linkage cluster C of Bohr
frequencies (neighbours at most ``secular_cutoff`` apart; at cutoff 0 one
frequency each, the full secular approximation) is one jump operator
X_C = sum_{omega in C} sqrt(rate(omega)) A(omega), assembled by
``liouville._superop`` like the local channels.

Everything is assembled in the energy eigenbasis of H, where the
Hamiltonian superoperator is diagonal and the A(omega) are sparse
blocks; steady states are solved there and rotated back only at the
end.  This keeps the six-spin superoperator (4096 x 4096) comfortably
sparse.  ``evaluate_heat_diode`` diagonalizes H once per point: both
biases share the eigensystem, the coherent part and one transition table
per bath site, so a bias only adds its rates (one array expression over
the distinct frequencies) and the GKLS assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .liouville import Liouvillian, _superop, hamiltonian_superop, unvectorize, vectorize
from .models import ModelSpec, Variant, build_hamiltonian, chain_ends
from .spinops import SIGMA_X, Operator, _as_matrix, site_operator
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

    ``secular_cutoff`` is the single-linkage width of the frequency
    clusters: Bohr frequencies chained by gaps of at most the cutoff
    share one jump operator, sum sqrt(rate(omega)) A(omega).  0 keeps
    each frequency alone after degeneracy grouping (full secular
    approximation).  Eigenvalues and frequencies closer than 1e-9 times
    the spectral scale count as degenerate.  All fields must be finite.
    """

    site: int
    temperature: float
    gamma: float = 1.0
    secular_cutoff: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")
        for name in ("gamma", "secular_cutoff"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.site < 1:
            raise ValueError(f"site must be a positive index, got {self.site}")


def bath_rate(omega: float, T: float, gamma: float) -> float:
    """Ohmic emission/absorption rate at transition frequency omega."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"temperature must be finite and positive, got {T}")
    if not (math.isfinite(omega) and math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"omega and gamma must be finite and gamma nonnegative, got {omega}, {gamma}")
    return float(_rates(np.array([omega], dtype=float), T, gamma)[0])


def _rates(omega: np.ndarray, T: float, gamma: float) -> np.ndarray:
    """Unchecked bath_rate over an array, bit-identical: np.expm1 can differ from math.expm1 in the last bit."""
    x = np.abs(omega) / T
    live = (omega != 0.0) & (x <= 700.0)
    n = np.zeros_like(x)
    n[live] = 1.0 / np.fromiter(map(math.expm1, x[live]), float, np.count_nonzero(live))
    rates = gamma * np.abs(omega) * np.where(omega > 0, 1.0 + n, n)
    rates[omega == 0.0] = gamma * T
    return rates


def _cluster(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group sorted-by-value entries closer than tol (single linkage).

    Returns (labels, means): labels[i] is the cluster of values[i] and
    means[k] the mean of cluster k, in increasing order.
    """
    order = np.argsort(values)
    ordered = values[order]
    sorted_labels = np.cumsum(np.diff(ordered, prepend=ordered[:1]) > tol)
    labels = np.empty(len(values), dtype=int)
    labels[order] = sorted_labels
    means = np.bincount(sorted_labels, weights=ordered) / np.bincount(sorted_labels)
    return labels, means


def _eigensystem(H) -> tuple[np.ndarray, np.ndarray]:
    """(eps, U) of a Hermitian H."""
    Hm = _as_matrix(H)
    if np.max(np.abs(Hm - Hm.conj().T)) > 1e-10:
        raise ValueError("H must be Hermitian")
    return np.linalg.eigh(Hm)


class _EigenBlocks:
    """Eigen-operator decomposition of one coupling operator.

    Holds the eigenvectors U of H and the transition table of the
    rotated coupling U^dagger C U: its nonzero elements ``values`` at
    (``rows``, ``cols``) with grouped frequency eps' - eps =
    ``freqs[inverse]``, sorted by frequency; ``freqs`` are the distinct
    frequencies, increasing.  A(omega) is the part of the table at one
    frequency.
    """

    def __init__(self, eigensystem, coupling):
        Cm = _as_matrix(coupling)
        if np.max(np.abs(Cm - Cm.conj().T)) > 1e-10:
            raise ValueError("coupling must be Hermitian")
        eps, U = eigensystem
        tol = 1e-9 * max(float(np.abs(eps).max()), 1.0)
        labels, means = _cluster(eps, tol)

        Ct = U.conj().T @ Cm @ U
        rows, cols = np.nonzero(np.abs(Ct) > 1e-13 * max(np.abs(Ct).max(), 1e-300))
        gap_labels, gap_means = _cluster(means[labels[cols]] - means[labels[rows]], tol)
        # snap the group containing zero exactly to zero
        gap_means[np.abs(gap_means) <= tol] = 0.0
        omega = gap_means[gap_labels]
        order = np.argsort(omega, kind="stable")

        self.U = U
        self.rows = rows[order]
        self.cols = cols[order]
        self.values = Ct[self.rows, self.cols]
        self.freqs, self.inverse = np.unique(omega[order], return_inverse=True)


def eigen_operators(H, coupling):
    """All (omega, A(omega)) pairs of a coupling operator, computational basis.

    The frequencies are the distinct eigenvalue gaps eps' - eps of H
    after grouping degenerate eigenvalues; the blocks satisfy
    sum A(omega) = coupling, A(-omega) = A(omega)^dagger and
    [H, A(omega)] = -omega A(omega).
    """
    eb = _EigenBlocks(_eigensystem(H), coupling)
    out = []
    for k, omega in enumerate(eb.freqs):
        A = np.zeros_like(eb.U)
        at = eb.inverse == k
        A[eb.rows[at], eb.cols[at]] = eb.values[at]
        out.append((float(omega), Operator(eb.U @ A @ eb.U.conj().T)))
    return out


@dataclass
class GlobalDissipator:
    """One bath's dissipator, held in the energy basis of H."""

    bath: ThermalBathSpec
    U: np.ndarray
    matrix_energy: sp.csr_matrix

    def apply(self, rho) -> np.ndarray:
        """D[rho] in the computational basis."""
        rho_e = self.U.conj().T @ _as_matrix(rho) @ self.U
        out_e = unvectorize(self.matrix_energy @ vectorize(rho_e))
        return self.U @ out_e @ self.U.conj().T

    def superop(self) -> np.ndarray:
        """Dense computational-basis superoperator (small systems only)."""
        return np.column_stack([vectorize(self.apply(unvectorize(e))) for e in np.eye(len(self.U) ** 2)])


class _HeatGenerator:
    """The bias-independent part of a heat generator, built once from H.

    Holds the eigensystem, -i[diag(eps), .] and one sigma_x transition table
    per bath site (built on first use); a call only adds the baths' rates.
    """

    def __init__(self, H):
        self.eigensystem = _eigensystem(H)
        self.coherent = hamiltonian_superop(np.diag(self.eigensystem[0]))
        self._tables = {}

    def dissipator(self, bath: ThermalBathSpec) -> GlobalDissipator:
        """One jump per frequency cluster, built by the GKLS assembler.

        The transitions of sigma_x at bath.site, sorted by frequency, form single-linkage
        clusters of width bath.secular_cutoff; cluster C jumps with sum_{w in C} sqrt(rate(w)) A(w).
        """
        if bath.site not in self._tables:
            n = len(self.eigensystem[0]).bit_length() - 1
            self._tables[bath.site] = _EigenBlocks(self.eigensystem, site_operator(n, bath.site, SIGMA_X))
        eb = self._tables[bath.site]
        rates = _rates(eb.freqs, bath.temperature, bath.gamma)[eb.inverse]
        jumps = (_cluster(eb.freqs, bath.secular_cutoff)[0][eb.inverse], eb.rows, eb.cols, eb.values, rates)
        return GlobalDissipator(bath, eb.U, _superop(None, jumps, len(eb.U)))

    def __call__(self, baths) -> tuple[Liouvillian, list[GlobalDissipator]]:
        baths = list(baths)
        if not baths:
            raise ValueError("need at least one bath")
        dissipators = [self.dissipator(bath) for bath in baths]
        return Liouvillian(sum((dis.matrix_energy for dis in dissipators), self.coherent)), dissipators


def global_dissipator(H, bath: ThermalBathSpec) -> GlobalDissipator:
    """Thermal dissipator for a sigma_x coupling at bath.site."""
    return _HeatGenerator(H).dissipator(bath)


def assemble_global_liouvillian(H, baths) -> tuple[Liouvillian, list[GlobalDissipator]]:
    """Full generator -i[H, .] + sum of bath dissipators.

    Returned in the energy eigenbasis of H (the coherent part is then
    diagonal); the accompanying GlobalDissipator objects carry the basis
    for rotating states back.  All baths share one diagonalization.
    """
    return _HeatGenerator(H)(baths)


def heat_current(H, dissipator: GlobalDissipator, rho_ss) -> float:
    """Heat flowing from one bath into the chain: K = tr(H D[rho_ss]).

    Positive K means the bath heats the chain.  In a two-bath steady
    state the currents of the baths balance, K_1 = -K_n, so either one
    determines the transported heat.
    """
    return float(np.trace(_as_matrix(H) @ dissipator.apply(rho_ss)).real)


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


def evaluate_heat_diode(
    spec: ModelSpec,
    T_C: float = 0.1,
    T_H: float = 10.1,
    gamma: float = 1.0,
    secular_cutoff: float = 0.0,
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
    generator = _HeatGenerator(H)  # one diagonalization, one transition table per site, both biases

    currents, balance, states = [], [], []
    for T1, Tn in ((T_H, T_C), (T_C, T_H)):
        L, dissipators = generator(ThermalBathSpec(s, T, gamma, secular_cutoff) for s, T in ((first, T1), (last, Tn)))
        U = dissipators[0].U  # solved in the energy basis, rotated back
        rho = Operator(U @ steady_state_solve(L).rho_ss.matrix @ U.conj().T)
        k1, kn = (heat_current(H, dis, rho) for dis in dissipators)
        currents.append(k1)
        balance.append(abs(k1 + kn))
        states.append(rho)

    K_f, K_r = currents
    R_Q = math.inf if abs(K_r) < 1e-16 else -K_f / K_r
    return HeatDiodeMetrics(K_f=K_f, K_r=K_r, R_Q=R_Q, balance=tuple(balance), rho_f=states[0], rho_r=states[1])

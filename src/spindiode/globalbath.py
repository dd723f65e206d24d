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
end.  The caller diagonalizes H and builds one transition table per bath
site (``_transitions``); ``evaluate_heat_diode`` does so once per point,
so both biases share them and a bias only adds its rates (one array
expression over the distinct frequencies).  ``_heat_liouvillian`` builds
a bias's generator from the tables in one CSR pass over both baths'
transition pairs; it is solved with ``steady_state_solve``, the solve of
the spin chains, which factors only the block reachable from the
populations (64-66 of 4096 indices for six spins at cutoff 0).  Each
bath's current comes from the energy-basis state and the bath's pairs.
The tests check the generator and its states against dense GKLS oracles
built from :func:`eigen_operators` and :func:`bath_rate` alone
(``tests/test_globalbath.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liouville import Liouvillian, _pairs, _superop
from .models import _VARIANTS, ModelSpec, build_hamiltonian, chain_ends
from .spinops import SIGMA_X, Operator, _finite_hermitian, site_operator
from .steadystate import steady_state_solve

__all__ = [
    "ThermalBathSpec",
    "HeatDiodeMetrics",
    "eigen_operators",
    "bath_rate",
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
    """Unchecked bath_rate over an array; bath_rate is this on one element, so the two agree bit for bit."""
    x = np.abs(omega) / T
    live = (omega != 0.0) & (x <= 700.0)
    n = np.zeros_like(x)
    n[live] = 1.0 / np.expm1(x[live])
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
    """(eps, U) of a finite Hermitian H."""
    return np.linalg.eigh(_finite_hermitian(H, "H"))


def _transitions(eigensystem, coupling) -> tuple:
    """Transition table (rows, cols, values, freqs, inverse) of one coupling operator C.

    ``values`` are the nonzero elements of U^dagger C U, with U the eigenvectors of the
    ``eigensystem`` (eps, U), at (``rows``, ``cols``), sorted by their grouped frequency
    eps' - eps = ``freqs[inverse]``; ``freqs`` are the distinct frequencies, increasing.
    A(omega) is the part of the table at one frequency.
    """
    Cm = _finite_hermitian(coupling, "coupling")
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
    rows, cols = rows[order], cols[order]
    freqs, inverse = np.unique(omega[order], return_inverse=True)
    return rows, cols, Ct[rows, cols], freqs, inverse


def eigen_operators(H, coupling):
    """All (omega, A(omega)) pairs of a coupling operator, computational basis.

    The frequencies are the distinct eigenvalue gaps eps' - eps of H
    after grouping degenerate eigenvalues; the blocks satisfy
    sum A(omega) = coupling, A(-omega) = A(omega)^dagger and
    [H, A(omega)] = -omega A(omega).
    """
    eigensystem = _eigensystem(H)
    U = eigensystem[1]
    rows, cols, values, freqs, inverse = _transitions(eigensystem, coupling)
    out = []
    for k, omega in enumerate(freqs):
        A = np.zeros_like(U)
        at = inverse == k
        A[rows[at], cols[at]] = values[at]
        out.append((float(omega), Operator(U @ A @ U.conj().T)))
    return out


def _heat_liouvillian(eps, tables, baths) -> tuple[Liouvillian, list[tuple]]:
    """The energy-basis generator of ``baths`` in one CSR build over all their pairs, and each bath's pairs.

    ``eps`` are the eigenvalues of H and ``tables`` holds the sigma_x transition table of each
    bath's site.  A bath's transitions form single-linkage clusters of width bath.secular_cutoff;
    cluster C jumps with sum_{w in C} sqrt(rate(w)) A(w).  The pairs are what heat_current reads.
    """
    pairs = []
    for bath in baths:
        rows, cols, values, freqs, inverse = tables[bath.site]
        rates = _rates(freqs, bath.temperature, bath.gamma)[inverse]
        pairs.append(_pairs((_cluster(freqs, bath.secular_cutoff)[0][inverse], rows, cols, values, rates)))
    if not pairs:
        raise ValueError("need at least one bath")
    return Liouvillian(_superop(np.diag(eps), tuple(map(np.concatenate, zip(*pairs))), len(eps))), pairs


def assemble_global_liouvillian(H, baths) -> tuple[Liouvillian, np.ndarray]:
    """Full generator -i[H, .] + sum of bath dissipators, and the eigenvectors U of H.

    L acts in the energy eigenbasis of H (a state rho is U^dagger rho U there), where the
    coherent part is diagonal.  All baths share one diagonalization.
    """
    eigensystem = _eigensystem(H)
    n = len(eigensystem[0]).bit_length() - 1
    tables = {bath.site: _transitions(eigensystem, site_operator(n, bath.site, SIGMA_X)) for bath in baths}
    return _heat_liouvillian(eigensystem[0], tables, baths)[0], eigensystem[1]


def heat_current(eps: np.ndarray, pairs: tuple, rho_e: np.ndarray) -> float:
    """Heat flowing from one bath into the chain: K = tr(diag(eps) D[rho_e]), in the energy basis.

    ``eps`` are the eigenvalues of H, ``rho_e`` a state in its eigenbasis and ``pairs`` the
    bath's pair table (liouville._pairs).  Only the pairs with a_s = a_t reach the diagonal
    of D[rho_e]; each moves w rho_e[b_t, b_s] at the frequency eps[a_s] - eps[b_s].
    Positive K means the bath heats the chain.  In a two-bath steady state the currents
    of the baths balance, K_1 = -K_n, so either one determines the transported heat.
    """
    a_s, a_t, b_s, b_t, w = pairs
    same = a_s == a_t
    a, b_s, b_t = a_s[same], b_s[same], b_t[same]
    return float(np.sum(w[same] * rho_e[b_t, b_s] * (eps[a] - eps[b_s])).real)


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
    current at the far bath).  Accepts the variants whose ``_VARIANTS`` row
    lists the heat transport: the local-field heat variant and the linear chain.
    """
    if "heat" not in _VARIANTS[spec.variant].transports:
        raise ValueError(f"heat transport is defined for Heat_HQ/LinearReference, got {spec.variant.value}")
    if T_H <= T_C:
        raise ValueError(f"need T_H > T_C, got T_H={T_H}, T_C={T_C}")
    H = build_hamiltonian(spec)
    first, last = chain_ends(spec)
    eigensystem = _eigensystem(H)  # one diagonalization and one transition table per chain end, both biases
    tables = {s: _transitions(eigensystem, site_operator(spec.n_sites, s, SIGMA_X)) for s in (first, last)}
    eps, U = eigensystem

    currents, balance, states = [], [], []
    for T1, Tn in ((T_H, T_C), (T_C, T_H)):
        baths = [ThermalBathSpec(first, T1, gamma, secular_cutoff), ThermalBathSpec(last, Tn, gamma, secular_cutoff)]
        L, pairs = _heat_liouvillian(eps, tables, baths)
        rho_e = steady_state_solve(L).rho_ss.matrix
        k1, kn = (heat_current(eps, p, rho_e) for p in pairs)
        currents.append(k1)
        balance.append(abs(k1 + kn))
        states.append(Operator(U @ rho_e @ U.conj().T))

    K_f, K_r = currents
    R_Q = math.inf if abs(K_r) < 1e-16 else -K_f / K_r
    return HeatDiodeMetrics(K_f=K_f, K_r=K_r, R_Q=R_Q, balance=tuple(balance), rho_f=states[0], rho_r=states[1])

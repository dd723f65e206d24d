"""Fermionic image of the diode chain under the Jordan-Wigner map.

sigma_+^(n) = a_n^dag exp(i pi sum_{k<n} n_k), so the annihilation
operators carry diagonal parity strings exp(i pi n_k) = -sigma_z^(k).
Nearest-neighbor XX bonds map to plain hopping K_mn = 2(a_m' a_n +
a_n' a_m); the next-nearest bonds across the interface pick up parity
prefactors (-1)^{n} of the bypassed site, and the Z coupling becomes
-2 Delta (n_1 - n_2)^2 after dropping a constant Delta*J.

The boundary baths act with a_1 (stringless, identical to the spin
sigma_- channel) and a_6 (string-dressed, so its sandwich term differs
from the spin bath even though the rectification does not).  Currents
follow from the continuity equation for n_i, which carries half the
scale of the sigma_z continuity used in the spin picture; ratios such
as the rectification are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# assemble_liouvillian and steady_state_solve are unused; bench/tracer.py patches them here
from .liouville import DissipatorKind, assemble_liouvillian  # noqa: F401
from .models import _VARIANTS, ModelSpec, current_bonds
from .observables import DiodeMetrics, bias_dissipators, diode_metrics
from .spinops import Operator, _jw_annihilator
from .steadystate import steady_state_solve  # noqa: F401

__all__ = [
    "FermionOps",
    "jw_fermions",
    "build_jw_hamiltonian",
    "fermionic_current_op",
    "fermionic_current_metrics",
]


@dataclass(frozen=True)
class FermionOps:
    """Jordan-Wigner annihilation and number operators for a register."""

    n_sites: int
    a: tuple[Operator, ...]
    number_ops: tuple[Operator, ...]


def jw_fermions(n_sites: int) -> FermionOps:
    """String-attached fermion operators a_n = (prod_{k<n} -sigma_z^(k)) sigma_-^(n)."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    a = [_jw_annihilator(n_sites, n) for n in range(1, n_sites + 1)]
    nums = tuple(Operator(m.conj().T @ m) for m in a)
    return FermionOps(n_sites=n_sites, a=tuple(map(Operator, a)), number_ops=nums)


def _hop(f: FermionOps, m: int, n: int) -> np.ndarray:
    """K_mn = 2(a_m' a_n + a_n' a_m), sites 1-based."""
    am, an = f.a[m - 1].matrix, f.a[n - 1].matrix
    return 2.0 * (am.conj().T @ an + an.conj().T @ am)


def build_jw_hamiltonian(spec: ModelSpec) -> Operator:
    """Fermionic Hamiltonian of the six-site diode.

    H/J = K12 + (1+delta) K23 + (-1)^{n3} K24 + (J34/J) K34
          + (-1)^{n4} K35 + K45 + K56 - 2 Delta (n1 - n2)^2.

    Equals the spin Hamiltonian minus the constant Delta*J dropped with
    the sigma_z sigma_z rewrite.
    """
    if "fermion" not in _VARIANTS[spec.variant].transports:
        raise ValueError(f"fermionic form is defined for the Diode variant, got {spec.variant.value}")
    f = jw_fermions(6)
    dim = 2**6
    eye = np.eye(dim, dtype=complex)

    def parity(k: int) -> np.ndarray:
        return eye - 2.0 * f.number_ops[k - 1].matrix

    n1, n2 = f.number_ops[0].matrix, f.number_ops[1].matrix
    dn = n1 - n2
    H = _hop(f, 1, 2)
    H = H + (1.0 + spec.delta) * _hop(f, 2, 3)
    H = H + parity(3) @ _hop(f, 2, 4)
    H = H + spec.J34 * _hop(f, 3, 4)
    H = H + parity(4) @ _hop(f, 3, 5)
    H = H + _hop(f, 4, 5)
    H = H + _hop(f, 5, 6)
    H = H - 2.0 * spec.Delta * (dn @ dn)
    return Operator(H)


def fermionic_current_op(f: FermionOps, i: int, j: int) -> Operator:
    """j_ij = 2i(a_i' a_j - a_j' a_i), the particle current in units of J."""
    ai, aj = f.a[i - 1].matrix, f.a[j - 1].matrix
    return Operator(2.0j * (ai.conj().T @ aj - aj.conj().T @ ai))


def fermionic_current_metrics(spec: ModelSpec, gamma: float = 1.0) -> DiodeMetrics:
    """Rectification of the fermionic chain under the baths of :func:`bias_dissipators`.

    Each ladder bath acts with a_n in place of sigma_-^(n): forward bias
    fills from site 1 (lam = 0.5) and drains at site 6 (lam = 0), reverse
    bias swaps the roles.  Currents are measured on the first and last
    bond and averaged, as in the spin evaluation.
    """
    H = build_jw_hamiltonian(spec)
    f = jw_fermions(6)
    ops = [fermionic_current_op(f, *bond) for bond in current_bonds(spec)]
    biases = [[replace(d, kind=DissipatorKind.FERMION_LADDER) for d in ds] for ds in bias_dissipators(spec, gamma)]
    return diode_metrics(H, biases, ops)

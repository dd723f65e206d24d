"""Correctness oracles of the benchmark, built apart from the program.

Every Hamiltonian and jump operator here is assembled from Pauli matrices
by these files, following the model definitions of the package
documentation: local basis (|down>, |up>), site 1 the leftmost tensor
factor, X_ij = sx sx + sy sy.  Master-equation residuals are dense d x d
products, never the program's superoperators.  The remaining checks are
properties the method must have (positivity, continuity, sign of the
currents under bias swap, the criteria thresholds of the acceptance gate).

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SZ = np.diag([-1.0, 1.0]).astype(complex)
SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |down> -> |up>
SM = SP.T.copy()

# measured on converged steady states: residuals 1e-15 to 1e-13, trace
# errors 1e-15, PSD clip floor -1e-10 (the program clips above it)
RESIDUAL_TOL = 1e-10
TRACE_TOL = 1e-10
HERMITIAN_TOL = 1e-12
EIG_FLOOR = -1e-10
CONTINUITY_TOL = 1e-8
BALANCE_TOL = 1e-8
COHERENCE_TOL = 1e-10
REPORT_RTOL = 1e-8


def site(n: int, i: int, local: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(np.eye(2 ** (i - 1)), local), np.eye(2 ** (n - i)))


def _pair(n: int, i: int, j: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return site(n, i, a) @ site(n, j, b)


def _xx(n, i, j):
    return _pair(n, i, j, SX, SX) + _pair(n, i, j, SY, SY)


def _zz(n, i, j):
    return _pair(n, i, j, SZ, SZ)


def critical_j34(Delta: float) -> float:
    return -(Delta + 1.3) if Delta >= 0 else -Delta + 1.3


N_SITES = {"Diode": 6, "Heat_HQ": 6, "LinearReference": 5}


def hamiltonian(variant: str, Delta=0.0, delta=0.0, J34=1.0, h=0.0) -> np.ndarray:
    """H/J of a variant, from the term lists in the package documentation."""
    n = N_SITES[variant]
    if variant == "LinearReference":
        H = sum(_xx(n, i, i + 1) for i in range(1, 5))
        return H + Delta * _zz(n, 1, 2) + h * (site(n, 1, SZ) + site(n, 2, SZ))
    bonds = [((1, 2), 1.0), ((2, 3), 1.0 + delta), ((2, 4), 1.0), ((3, 4), J34),
             ((3, 5), 1.0), ((4, 5), 1.0), ((5, 6), 1.0)]
    H = sum(c * _xx(n, i, j) for (i, j), c in bonds)
    if variant == "Heat_HQ":
        return H + h * (site(n, 1, SZ) + site(n, 2, SZ))
    return H + Delta * _zz(n, 1, 2)


def fermion_ops(n: int) -> list[np.ndarray]:
    """a_k = (prod_{j<k} -sz_j) s-_k, the Jordan-Wigner annihilators."""
    out, string = [], np.eye(2**n, dtype=complex)
    for k in range(1, n + 1):
        out.append(string @ site(n, k, SM))
        string = string @ -site(n, k, SZ)
    return out


def spin_jumps(variant: str, forward: bool, gamma=1.0, T=None) -> list[tuple[float, np.ndarray]]:
    """(rate, L) pairs: hot ladder bath (lam 0.5), cold decay bath, bulk decoherence."""
    n = N_SITES[variant]
    hot, cold = (1, n) if forward else (n, 1)
    jumps = [(0.5 * gamma, site(n, hot, SP)), (0.5 * gamma, site(n, hot, SM)), (gamma, site(n, cold, SM))]
    if T is not None:
        for i in range(1, n + 1):
            jumps += [(1.0 / T, site(n, i, SM)), (1.0 / (4.0 * T), site(n, i, SZ))]
    return jumps


def fermion_jumps(forward: bool, gamma=1.0) -> list[tuple[float, np.ndarray]]:
    a = fermion_ops(6)
    lam1, lam6 = (0.5, 0.0) if forward else (0.0, 0.5)
    out = []
    for lam, op in ((lam1, a[0]), (lam6, a[5])):
        out += [(gamma * lam, op.conj().T), (gamma * (1.0 - lam), op)]
    return [(r, L) for r, L in out if r > 0.0]


def residual(H: np.ndarray, jumps, rho: np.ndarray) -> float:
    """Frobenius norm of -i[H, rho] + sum rate (L rho L' - {L'L, rho}/2)."""
    out = -1j * (H @ rho - rho @ H)
    for rate, L in jumps:
        LdL = L.conj().T @ L
        out += rate * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return float(np.linalg.norm(out))


def state(rho: np.ndarray, label: str) -> list[str]:
    """Unit trace, Hermitian, no eigenvalue below the clip floor."""
    bad = []
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        bad.append(f"{label}: trace {np.trace(rho)}")
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITIAN_TOL:
        bad.append(f"{label}: not Hermitian ({herm:.1e})")
    elif np.linalg.eigvalsh(rho).min() < EIG_FLOOR:
        bad.append(f"{label}: negative eigenvalue {np.linalg.eigvalsh(rho).min():.2e}")
    return bad


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _currents(ops_first, ops_last, rho) -> tuple[float, float]:
    return float(np.trace(ops_first @ rho).real), float(np.trace(ops_last @ rho).real)


def spin_current(n: int, i: int, j: int) -> np.ndarray:
    return 2.0 * (_pair(n, i, j, SX, SY) - _pair(n, i, j, SY, SX))


def transport_point(p: dict, row: dict, rho_f: np.ndarray, rho_r: np.ndarray) -> list[str]:
    """Residual, state, continuity, current signs and reported values of one point.

    ``p`` is the generated input (variant, mode, T); ``row`` the sweep row
    the program returned for it, whose parameter columns give H.
    """
    label = p["label"]
    variant, mode = p["variant"], p["mode"]
    bad = []
    if "off" in p and abs(row["J34"] - (critical_j34(row["Delta"]) + p["off"])) > 1e-12:
        bad.append(f"{label}: J34 {row['J34']} is off the requested window offset")
    H = hamiltonian(variant, Delta=row["Delta"], delta=row["delta"], J34=row["J34"])
    n = N_SITES[variant]
    if mode == "fermion":
        a = fermion_ops(n)
        j_ops = [2.0j * (a[i].conj().T @ a[j] - a[j].conj().T @ a[i]) for i, j in ((0, 1), (n - 2, n - 1))]
    else:
        j_ops = [spin_current(n, 1, 2), spin_current(n, n - 1, n)]
    conserving = p.get("T") is None
    currents = []
    for forward, rho in ((True, rho_f), (False, rho_r)):
        tag = f"{label}/{'f' if forward else 'r'}"
        bad += state(rho, tag)
        jumps = fermion_jumps(forward) if mode == "fermion" else spin_jumps(variant, forward, T=p.get("T"))
        res = residual(H, jumps, rho)
        if res > RESIDUAL_TOL:
            bad.append(f"{tag}: master-equation residual {res:.2e} > {RESIDUAL_TOL:.0e}")
        ja, jb = _currents(*j_ops, rho)
        # bulk decay does not conserve magnetization
        if conserving and abs(ja - jb) > CONTINUITY_TOL:
            bad.append(f"{tag}: bond currents differ by {abs(ja - jb):.2e}")
        currents.append(0.5 * (ja + jb))
    J_f, J_r = currents
    if not J_f * J_r < 0.0:
        bad.append(f"{label}: J_f = {J_f:.3e} and J_r = {J_r:.3e} do not have opposite signs")
    for name, mine in (("J_f", J_f), ("J_r", J_r), ("R", -J_f / J_r)):
        if not _close(row[name], mine, REPORT_RTOL):
            bad.append(f"{label}: reported {name} {row[name]!r} != {mine!r} from the states")
    if "F_psi_minus_34_r" in row:
        reduced = partial_trace_34(rho_r, n)
        singlet = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)  # (|ud> - |du>)/sqrt2
        F = float(np.real(singlet @ reduced @ singlet))
        if abs(F - row["F_psi_minus_34_r"]) > 1e-9:
            bad.append(f"{label}: singlet fidelity {row['F_psi_minus_34_r']} != {F}")
        if not 0.0 <= row["concurrence_34_r"] <= 1.0:
            bad.append(f"{label}: concurrence {row['concurrence_34_r']} outside [0, 1]")
    return bad


def partial_trace_34(rho: np.ndarray, n: int) -> np.ndarray:
    t = rho.reshape([2] * (2 * n))
    keep = [2, 3]  # zero-based sites 3 and 4
    rest = [k for k in range(n) if k not in keep]
    letters = "abcdefghijklmnopqrstuvwxyz"
    ket, bra = list(letters[:n]), list(letters[n : 2 * n])
    for k in rest:
        bra[k] = ket[k]
    spec = "".join(ket) + "".join(bra) + "->" + "".join(ket[k] for k in keep) + "".join(bra[k] for k in keep)
    return np.einsum(spec, t).reshape(4, 4)


def heat_point(p: dict, row: dict, rho_f: np.ndarray, rho_r: np.ndarray) -> list[str]:
    """Bath balance, current signs, and no coherence between distinct levels."""
    label = p["label"]
    bad = []
    for name in ("balance_f", "balance_r"):
        if not row[name] < BALANCE_TOL:
            bad.append(f"{label}: {name} {row[name]:.2e} >= {BALANCE_TOL:.0e}")
    if not row["K_f"] > 0.0 > row["K_r"]:
        bad.append(f"{label}: K_f = {row['K_f']:.3e}, K_r = {row['K_r']:.3e} (want K_f > 0 > K_r)")
    if not _close(row["R_Q"], -row["K_f"] / row["K_r"], 1e-12):
        bad.append(f"{label}: R_Q {row['R_Q']} != -K_f/K_r")
    kw = {"h": row["h"]}
    if p["variant"] == "Heat_HQ":
        kw.update(delta=row["delta"], J34=row["J34"])
        if abs(row["J34"] - (row["h"] + 1.3 + p["off"])) > 1e-12:
            bad.append(f"{label}: J34 {row['J34']} is off the requested window offset")
    eps, U = np.linalg.eigh(hamiltonian(p["variant"], **kw))
    distinct = np.abs(eps[:, None] - eps[None, :]) > 1e-6 * max(1.0, float(np.abs(eps).max()))
    for tag, rho in (("f", rho_f), ("r", rho_r)):
        bad += state(rho, f"{label}/{tag}")
        coh = float(np.abs((U.conj().T @ rho @ U)[distinct]).max())
        if coh > COHERENCE_TOL:
            bad.append(f"{label}/{tag}: coherence {coh:.2e} between non-degenerate levels")
    return bad


def swap_34(n: int) -> np.ndarray:
    """SWAP of sites 3 and 4 as (1 + sx sx + sy sy + sz sz) / 2."""
    return 0.5 * (np.eye(2**n) + _xx(n, 3, 4) + _zz(n, 3, 4))


def trajectory(states, label: str) -> list[str]:
    """Trace and Hermiticity along a propagated trajectory."""
    bad = []
    for k, rho in enumerate(states):
        m = getattr(rho, "matrix", rho)
        drift = abs(np.trace(m) - 1.0)
        herm = float(np.abs(m - m.conj().T).max())
        if drift > TRACE_TOL or herm > 1e-10:
            bad.append(f"{label}: step {k} trace error {drift:.1e}, anti-Hermitian part {herm:.1e}")
            break
    return bad

"""Acceptance gate: one test per headline claim of the simulator.

Each test prints a single PASS/FAIL line (visible with -s; pytest -v
additionally reports one verdict per criterion through the test names).
Shared parameter scans are computed once in module-scoped fixtures.
"""

import math
import warnings

import numpy as np
import pytest

from spindiode.globalbath import (
    ThermalBathSpec,
    assemble_global_liouvillian,
    bath_rate,
    evaluate_heat_diode,
)
from spindiode.jordanwigner import fermionic_current_metrics
from spindiode.liouville import (
    DissipatorSpec,
    assemble_liouvillian,
    decoherence_channels,
    propagate,
    unvectorize,
    vectorize,
)
from spindiode.models import (
    ModelSpec,
    Variant,
    build_hamiltonian,
    critical_j34,
    critical_j34_heat,
    restrict_to_sites,
)
from spindiode.observables import evaluate_diode, fidelity_mixed, fidelity_pure
from spindiode.spinops import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    Operator,
    bell_state,
    exchange_xx,
    kron_states,
    partial_trace,
    product_state,
    site_operator,
    standard_initial_states,
    swap_operator,
)
from spindiode.steadystate import steady_state_solve, steady_states


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _tuned(delta: float, Delta: float = 5.0) -> ModelSpec:
    return ModelSpec(variant=Variant.DIODE, Delta=Delta, delta=delta, J34=critical_j34(Delta))


@pytest.fixture(scope="module")
def window_scan():
    """Criterion 3 grid: Delta in [7, 10], J34 in a +-0.3 window (25 pts)."""
    rows = []
    for Delta in np.linspace(7.0, 10.0, 5):
        for off in np.linspace(-0.3, 0.3, 5):
            spec = ModelSpec(
                variant=Variant.DIODE, Delta=Delta, delta=0.01, J34=critical_j34(Delta) + off
            )
            rows.append((Delta, spec.J34, evaluate_diode(spec, gamma=1.0)))
    return rows


@pytest.fixture(scope="module")
def line_scan():
    """Criterion 5 grid: 16 points along the critical line, delta = 0.01."""
    rows = []
    for Delta in np.linspace(1.0, 10.0, 16):
        m = evaluate_diode(_tuned(0.01, Delta), gamma=1.0)
        reduced = partial_trace(m.rho_r, keep=(3, 4))
        F = fidelity_pure(reduced, bell_state("psi-"))
        rows.append((Delta, m, F))
    return rows


@pytest.fixture(scope="module")
def tuned_metrics():
    return evaluate_diode(_tuned(0.01), gamma=1.0)


def test_criterion_01_eigenstate_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    psi = kron_states(product_state("dd"), bell_state("psi-"))
    flipped = product_state("dudd")
    for _ in range(20):
        Delta = rng.uniform(-10.0, 10.0)
        delta = rng.uniform(0.0, 0.2)
        J34 = rng.uniform(-12.0, 12.0)
        spec = ModelSpec(variant=Variant.DIODE, Delta=Delta, delta=delta, J34=J34)
        H4 = restrict_to_sites(spec, range(1, 5))
        lhs = H4 @ psi
        rhs = math.sqrt(2.0) * delta * flipped.amplitudes + (Delta - 2.0 * J34) * psi.amplitudes
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst < 1e-12
    _report(1, ok, f"gate-pair eigenstate identity, 20 draws, max residual {worst:.2e} (< 1e-12)")
    assert ok


def test_criterion_02_interference_identity():
    # register holds sites 2-5; the singlet lives on 3, 4
    state = kron_states(product_state("d"), bell_state("psi-"), product_state("u"))
    blocking = exchange_xx(4, 2, 4) + exchange_xx(4, 3, 4)
    out = blocking @ state
    worst = float(np.abs(out).max())
    ok = worst < 1e-14
    _report(2, ok, f"both paths into site 5 cancel on the singlet, max entry {worst:.2e} (< 1e-14)")
    assert ok


def test_criterion_03_rectification_magnitude(window_scan):
    max_R = max(m.R for _, _, m in window_scan)
    ok = max_R > 3e4
    _report(3, ok, f"max R = {max_R:.3e} over the 25-point window (target > 1e5, floor 3e4)")
    assert ok
    if max_R <= 1e5:
        warnings.warn(f"max R = {max_R:.3e} clears the 3e4 floor but not 1e5")


def test_criterion_04_enhancement_over_linear_chain(tuned_metrics):
    linear = evaluate_diode(ModelSpec(variant=Variant.LINEAR_REFERENCE, Delta=5.0), gamma=1.0)
    ratio = tuned_metrics.R / linear.R
    ok = ratio >= 1e3
    _report(4, ok, f"R(diode)/R(uniform chain) = {ratio:.3e} (>= 1e3)")
    assert ok


def test_criterion_05_mechanism_correlation(line_scan):
    flagged = [(D, m.C, F) for D, m, F in line_scan if m.C >= 0.99]
    assert flagged, "no high-contrast points in the scan"
    min_F = min(F for _, _, F in flagged)
    ok = min_F >= 0.95
    _report(
        5,
        ok,
        f"{len(flagged)}/16 line points have C >= 0.99; their min singlet fidelity "
        f"{min_F:.4f} (>= 0.95)",
    )
    assert ok


def test_criterion_06_degeneracy_and_conserved_swap():
    spec = _tuned(0.0)
    H = build_hamiltonian(spec)
    L = assemble_liouvillian(
        H,
        [DissipatorSpec(site=6, gamma=1.0, lam=0.5), DissipatorSpec(site=1, gamma=1.0, lam=0.0)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = steady_states(L, method="arnoldi")
    P = swap_operator(6, 3, 4)
    drift = 0.0
    for pattern in ("ududud", "dduudd"):
        psi = product_state(pattern)
        traj = propagate(L, psi, np.linspace(0.0, 10.0, 6))
        vals = [r.expect(P).real for r in traj]
        drift = max(drift, max(abs(v - vals[0]) for v in vals))
    ok = res.degeneracy >= 2 and drift < 1e-8
    _report(
        6,
        ok,
        f"delta = 0 reverse bias: {res.degeneracy} null eigenvalues (>= 2), "
        f"<P> drift {drift:.2e} along trajectories (< 1e-8)",
    )
    assert ok


def test_criterion_07_uniqueness_and_convergence():
    spec = _tuned(0.1)
    H = build_hamiltonian(spec)
    setups = {
        "forward": [DissipatorSpec(site=1, gamma=1.0, lam=0.5), DissipatorSpec(site=6, gamma=1.0, lam=0.0)],
        "reverse": [DissipatorSpec(site=6, gamma=1.0, lam=0.5), DissipatorSpec(site=1, gamma=1.0, lam=0.0)],
    }
    L = {bias: assemble_liouvillian(H, d) for bias, d in setups.items()}
    rho_ss = {bias: steady_state_solve(Lb).rho_ss for bias, Lb in L.items()}

    degeneracies = {bias: steady_states(Lb, method="arnoldi").degeneracy for bias, Lb in L.items()}
    unique = all(d == 1 for d in degeneracies.values())

    initials = list(standard_initial_states(6)) + [rho_ss["forward"], rho_ss["reverse"]]
    min_F = {}
    for bias, Lb in L.items():
        fids = []
        for init in initials:
            rho_t = propagate(Lb, init, [0.0, 50.0])[-1]
            fids.append(fidelity_mixed(rho_t, rho_ss[bias]))
        min_F[bias] = min(fids)
    converged = all(f > 0.999 for f in min_F.values())

    ok = unique and converged
    _report(
        7,
        ok,
        f"null-space dimensions {degeneracies} (need 1 per bias); "
        f"min Uhlmann fidelity at tJ = 50: forward {min_F['forward']:.4f}, "
        f"reverse {min_F['reverse']:.4f} (need > 0.999 for all ten initial states)",
    )
    assert unique, "steady-state uniqueness failed"
    assert converged, (
        f"not every initial state reaches F > 0.999 by tJ = 50: "
        f"forward min {min_F['forward']:.4f}, reverse min {min_F['reverse']:.4f}; "
        "the slow bias gap makes this deadline unreachable, see notes"
    )


def test_criterion_08_current_continuity(window_scan, line_scan, tuned_metrics):
    worst = max(max(m.continuity) for _, _, m in window_scan)
    worst = max(worst, max(max(m.continuity) for _, m, _ in line_scan))
    worst = max(worst, max(tuned_metrics.continuity))
    ok = worst < 1e-8
    _report(8, ok, f"max |j_12 - j_56| over all sweep points {worst:.2e} (< 1e-8)")
    assert ok


def test_criterion_09_resonant_transition_dynamics():
    spec = ModelSpec(variant=Variant.DIODE, delta=0.1, Delta=100.0, J34=-101.0)
    L = assemble_liouvillian(
        build_hamiltonian(spec), [DissipatorSpec(site=1, gamma=1.0, lam=0.0)]
    )
    psi0 = product_state("dduudd")
    gate = kron_states(product_state("dd"), bell_state("psi-"), product_state("dd"))
    traj = propagate(L, psi0, [0.0, 100.0, 200.0])
    F_init = [fidelity_pure(r, psi0) for r in traj]
    F_gate = [fidelity_pure(r, gate) for r in traj]
    ok = F_gate[-1] > 0.8 and F_init[-1] < 0.01 and F_init[0] > 0.999
    _report(
        9,
        ok,
        f"F(gate singlet) at tJ = 200: {F_gate[-1]:.4f} (> 0.8); "
        f"initial-state fidelity decays 1 -> {F_init[-1]:.1e}",
    )
    assert ok


def test_criterion_10_heat_diode():
    scan = []
    for h in np.linspace(5.0, 10.0, 5):
        for off in (-0.3, 0.0, 0.3):
            spec = ModelSpec(
                variant=Variant.HEAT_HQ, delta=0.01, h=h, J34=critical_j34_heat(h) + off
            )
            m = evaluate_heat_diode(spec, T_C=0.1, T_H=10.1, gamma=1.0)
            scan.append((h, off, m))
    max_RQ = max(m.R_Q for _, _, m in scan)

    ratios = []
    for h, off, m in scan:
        if off != 0.0:
            continue
        linear = evaluate_heat_diode(
            ModelSpec(variant=Variant.LINEAR_REFERENCE, h=h), T_C=0.1, T_H=10.1, gamma=1.0
        )
        ratios.append(m.R_Q / linear.R_Q)
    min_ratio = min(ratios)

    ok = max_RQ > 1e8 and min_ratio > 1e2
    _report(
        10,
        ok,
        f"max R_Q = {max_RQ:.3e} over the window (> 1e8); on-line advantage over the "
        f"uniform chain >= {min_ratio:.1e} pointwise (> 1e2)",
    )
    assert ok


def test_criterion_11_global_bath_sanity():
    T = 0.7
    H = Operator(np.diag([-0.9, 0.9]).astype(complex))
    L, diss = assemble_global_liouvillian(H, [ThermalBathSpec(site=1, temperature=T)])
    rho_e = steady_state_solve(L).rho_ss.matrix
    U = diss[0].U
    rho = U @ rho_e @ U.conj().T
    gibbs = np.diag(np.exp(-np.diag(H.matrix).real / T))
    gibbs = gibbs / np.trace(gibbs)
    tdist = 0.5 * float(np.abs(np.linalg.eigvalsh(rho - gibbs)).sum())

    db_err = 0.0
    for w in (0.25, 1.0, 3.0, 8.0):
        ratio = bath_rate(-w, T, 1.0) / bath_rate(w, T, 1.0)
        db_err = max(db_err, abs(ratio - math.exp(-w / T)))

    m = evaluate_heat_diode(
        ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3),
        T_C=0.1,
        T_H=10.1,
        gamma=1.0,
    )
    balance = max(m.balance)

    ok = tdist < 1e-6 and db_err < 1e-12 and balance < 1e-8
    _report(
        11,
        ok,
        f"single-qubit Gibbs trace distance {tdist:.1e} (< 1e-6); detailed-balance error "
        f"{db_err:.1e}; two-bath heat balance {balance:.1e} (< 1e-8)",
    )
    assert ok


def test_criterion_12_jordan_wigner_equivalence():
    worst = 0.0
    for Delta in np.linspace(1.0, 10.0, 10):
        spec = _tuned(0.01, Delta)
        R_spin = evaluate_diode(spec, gamma=1.0).R
        R_ferm = fermionic_current_metrics(spec, gamma=1.0).R
        worst = max(worst, abs(R_ferm - R_spin) / abs(R_spin))
    ok = worst < 1e-6
    _report(12, ok, f"fermionic vs spin rectification at 10 line points, max rel diff {worst:.2e}")
    assert ok


def test_criterion_13_decoherence_and_correction():
    spec = _tuned(0.1)
    Rs = {}
    for TJ in (1e3, 1e4, 1e5):
        m = evaluate_diode(spec, gamma=1.0, extra_dissipators=decoherence_channels(6, TJ))
        Rs[TJ] = m.R
    monotone = Rs[1e3] < Rs[1e4] < Rs[1e5]

    corrected_spec = ModelSpec(
        variant=Variant.SHADOW_CORRECTED, Delta=5.0, delta=0.1, J34=critical_j34(5.0)
    )
    m_corr = evaluate_diode(
        corrected_spec, gamma=1.0, extra_dissipators=decoherence_channels(7, 1e3)
    )
    gain = m_corr.R / Rs[1e3]

    ok = monotone and gain >= 1.5
    _report(
        13,
        ok,
        f"R under decoherence: {Rs[1e3]:.3f} (TJ = 1e3) < {Rs[1e4]:.2f} (1e4) < "
        f"{Rs[1e5]:.1f} (1e5); shadow-qubit correction gain {gain:.2f}x (>= 1.5)",
    )
    assert ok


def test_criterion_14_generator_oracle():
    spec = _tuned(0.1)
    H = build_hamiltonian(spec)
    gamma = 1.0
    dissipators = [
        DissipatorSpec(site=1, gamma=gamma, lam=0.5),
        DissipatorSpec(site=6, gamma=gamma, lam=0.0),
    ]
    L = assemble_liouvillian(H, dissipators)

    jumps = []
    for d in dissipators:
        up = site_operator(6, d.site, SIGMA_PLUS).matrix
        down = site_operator(6, d.site, SIGMA_MINUS).matrix
        jumps.append((d.gamma * d.lam, up))
        jumps.append((d.gamma * (1.0 - d.lam), down))

    rng = np.random.default_rng(7)
    Hm = H.matrix
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        expected = -1j * (Hm @ rho - rho @ Hm)
        for rate, A in jumps:
            AdA = A.conj().T @ A
            expected = expected + rate * (A @ rho @ A.conj().T - 0.5 * (AdA @ rho + rho @ AdA))
        got = unvectorize(L.matrix @ vectorize(rho))
        worst = max(worst, float(np.abs(got - expected).max()))
    ok = worst < 1e-12
    _report(14, ok, f"assembled generator vs direct master equation, 50 states, max diff {worst:.2e}")
    assert ok

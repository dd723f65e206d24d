import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spindiode import globalbath, steadystate
from spindiode.globalbath import (
    ThermalBathSpec,
    _cluster,
    _eigensystem,
    _heat_liouvillian,
    _rates,
    _transitions,
    assemble_global_liouvillian,
    bath_rate,
    eigen_operators,
    evaluate_heat_diode,
    heat_current,
)
from spindiode.liouville import unvectorize, vectorize
from spindiode.models import ModelSpec, Variant, build_hamiltonian, chain_ends
from spindiode.spinops import SIGMA_X, SIGMA_Z, Operator, coupling_zz, exchange_xx, site_operator
from spindiode.steadystate import steady_state_solve


def full_space_heat_current(H, bath, rho):
    """tr(H D[rho]) of one bath: tr(diag(eps) L_1[rho_e]) with L_1 the bath's one-bath generator.

    rho is rotated into the energy basis, where L_1 acts; the coherent part of L_1 has no
    diagonal, so it adds nothing to the trace.  Not the pair sum of heat_current.
    """
    L1, U = assemble_global_liouvillian(H, [bath])
    rho_e = U.conj().T @ rho @ U
    return float(np.real(np.linalg.eigvalsh(H.matrix) @ np.diag(unvectorize(L1.matrix @ vectorize(rho_e)))))


def small_hamiltonian(n=3):
    H = exchange_xx(n, 1, 2)
    for b in range(2, n):
        H = H + exchange_xx(n, b, b + 1)
    H = H + 0.7 * coupling_zz(n, 1, 2) + 0.4 * site_operator(n, 1, SIGMA_Z)
    return H


def test_eigen_operator_identities():
    n = 3
    H = small_hamiltonian(n)
    coupling = site_operator(n, 2, SIGMA_X)
    pairs = eigen_operators(H, coupling)

    total = sum(A.matrix for _, A in pairs)
    assert_allclose(total, coupling.matrix, atol=1e-10)

    by_freq = {w: A.matrix for w, A in pairs}
    for w, A in pairs:
        assert -w in by_freq
        assert_allclose(by_freq[-w], A.matrix.conj().T, atol=1e-10)
        comm = H.matrix @ A.matrix - A.matrix @ H.matrix
        assert_allclose(comm, -w * A.matrix, atol=1e-8)


def dense_secular_dissipator(H, bath):
    """Dense oracle built from the public eigen-operator pairs, column-stacked vec.

    D = sum over |w_i - w_j| <= cutoff of
        1/2 rate(w_i) [A_i . A_j' + A_j . A_i' - A_j'A_i . - . A_i'A_j].
    """
    n = H.matrix.shape[0].bit_length() - 1
    pairs = eigen_operators(H, site_operator(n, bath.site, SIGMA_X))
    eye = np.eye(H.matrix.shape[0])
    D = np.zeros((eye.size, eye.size), dtype=complex)
    for wi, Ai in pairs:
        rate = bath_rate(wi, bath.temperature, bath.gamma)
        for wj, Aj in pairs:
            if abs(wi - wj) > bath.secular_cutoff:
                continue
            Ai_, Aj_ = Ai.matrix, Aj.matrix
            D += 0.5 * rate * (
                np.kron(Aj_.conj(), Ai_)
                + np.kron(Ai_.conj(), Aj_)
                - np.kron(eye, Aj_.conj().T @ Ai_)
                - np.kron((Ai_.conj().T @ Aj_).T, eye)
            )
    return D


def cluster_jumps(pairs, bath):
    """The bath's jumps from its eigen_operators pairs: per cluster C the terms (sqrt(rate(w)), A(w)), w in C.

    X_C = sum_{w in C} sqrt(rate(w)) A(w).  The clusters C chain the sorted
    frequencies whose neighbours lie at most the cutoff apart.
    """
    pairs = sorted(pairs, key=lambda p: p[0])
    clusters = [[pairs[0]]]
    for (w_prev, _), pair in zip(pairs, pairs[1:]):
        if pair[0] - w_prev > bath.secular_cutoff:
            clusters.append([])
        clusters[-1].append(pair)
    T, gamma = bath.temperature, bath.gamma
    return [[(math.sqrt(bath_rate(w, T, gamma)), A.matrix) for w, A in cluster] for cluster in clusters]


def dense_cluster_dissipator(H, bath):
    """Dense oracle sum_C D[X_C] with the cluster jumps, column-stacked vec; D[X] = X . X' - 1/2 {X'X, .}."""
    n = H.matrix.shape[0].bit_length() - 1
    eye = np.eye(H.matrix.shape[0])
    D = np.zeros((eye.size, eye.size), dtype=complex)
    for terms in cluster_jumps(eigen_operators(H, site_operator(n, bath.site, SIGMA_X)), bath):
        X = sum(s * A for s, A in terms)
        XdX = X.conj().T @ X
        D += np.kron(X.conj(), X) - 0.5 * np.kron(eye, XdX) - 0.5 * np.kron(XdX.T, eye)
    return D


def gkls_action(H, jumps, B):
    """-i[H, rho] + sum_C (X_C rho X_C' - 1/2 {X_C'X_C, rho}) at rho = B B', in dense matrices.

    ``jumps`` holds the cluster_jumps of each bath.  With B of d x r every term costs d^2 r,
    not d^3, and no X_C is formed.
    """
    rho = B @ B.conj().T
    out = -1j * (H @ rho - rho @ H)
    W = np.zeros_like(B)  # sum X_C'X_C B
    for bath in jumps:
        for terms in bath:
            XB = sum(s * (A @ B) for s, A in terms)
            W += sum(s * (A.conj().T @ XB) for s, A in terms)
            out += XB @ XB.conj().T
    return out - 0.5 * (W @ B.conj().T + B @ W.conj().T)


@pytest.mark.parametrize("cutoff", [0.0, 0.5])
def test_secular_dissipator_matches_dense_oracle(cutoff):
    """Cutoff 0 against the equal-frequency pairing, cutoff 0.5 against the cluster jumps.

    The one-bath generator is rotated to the computational basis, vec(U X U') = (conj(U) kron U) vec(X),
    and its coherent part -i(I kron H - H^T kron I) subtracted.
    """
    H = small_hamiltonian(3)
    bath = ThermalBathSpec(site=1, temperature=1.3, gamma=0.8, secular_cutoff=cutoff)
    oracle = dense_secular_dissipator
    if cutoff > 0:
        freqs = [w for w, _ in eigen_operators(H, site_operator(3, 1, SIGMA_X))]
        assert any(0 < abs(wi - wj) <= cutoff for wi in freqs for wj in freqs)
        oracle = dense_cluster_dissipator
    L, U = assemble_global_liouvillian(H, [bath])
    S, eye = np.kron(U.conj(), U), np.eye(8)
    D = S @ L.dense() @ S.conj().T + 1j * (np.kron(eye, H.matrix) - np.kron(H.matrix.T, eye))
    assert np.abs(D - oracle(H, bath)).max() < 1e-12


def choi(S):
    """Choi matrix sum_ij |i><j| (x) S(|i><j|) of a column-stacked superoperator."""
    d = int(round(math.sqrt(S.shape[0])))
    # S[b*d + a, j*d + i] = <a|S(|i><j|)|b> becomes C[i*d + a, j*d + b]
    return S.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


@given(
    seed=st.integers(0, 2**32 - 1),
    temperature=st.floats(0.05, 20.0),
    cutoff=st.floats(0.0, 2.0),
    site=st.integers(1, 3),
)
def test_thermal_generator_is_gkls(seed, temperature, cutoff, site):
    """A random three-spin H, any temperature and cutoff: a trace- and Hermiticity-preserving CP generator.

    The coherent part and the no-jump part -1/2 {X'X, .} only add Choi terms
    along the maximally entangled vector Omega, so off Omega the Choi matrix of
    the one-bath generator is that of its jump part, sum_C |X_C>><<X_C|, and
    must be PSD.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = Operator(a + a.conj().T)
    bath = ThermalBathSpec(site=site, temperature=temperature, secular_cutoff=cutoff)
    L = assemble_global_liouvillian(H, [bath])[0].dense()

    C = choi(L)
    omega = vectorize(np.eye(8)) / math.sqrt(8)
    P = np.eye(64) - np.outer(omega, omega)
    assert np.abs(C - C.conj().T).max() < 1e-12 * np.abs(C).max()
    assert np.linalg.eigvalsh(P @ C @ P).min() > -1e-12 * np.abs(C).max()

    assert np.abs(vectorize(np.eye(8)) @ L).max() < 1e-12 * np.abs(L).max()
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    lhs, rhs = unvectorize(L @ vectorize(x.conj().T)), unvectorize(L @ vectorize(x)).conj().T
    assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(L).max() * np.abs(x).max()


def test_cluster_chains_gaps_below_tol():
    tol = 1e-3
    values = np.array([5.0, 0.0, 2 * 0.999e-3, 0.999e-3, 3 * 0.999e-3])
    labels, means = _cluster(values, tol)
    # neighbours 0.999e-3 apart chain although the ends are 3e-3 apart
    assert list(labels) == [1, 0, 0, 0, 0]
    assert_allclose(means, [1.5 * 0.999e-3, 5.0], rtol=1e-12)


def test_bath_rate_detailed_balance():
    for w in (0.3, 1.0, 4.7):
        for T in (0.1, 1.0, 10.0):
            up = bath_rate(-w, T, 1.0)
            down = bath_rate(w, T, 1.0)
            assert up / down == pytest.approx(math.exp(-w / T), rel=1e-12)
    assert bath_rate(0.0, 2.5, 0.8) == pytest.approx(2.0)
    # deep quantum regime must not overflow expm1
    assert bath_rate(-100.0, 0.1, 1.0) == 0.0
    assert bath_rate(100.0, 0.1, 1.0) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        bath_rate(1.0, 0.0, 1.0)


def scalar_rate(omega, T, gamma):
    """The ohmic rate written out one frequency at a time, the reference for the vectorized rates.

    It calls np.expm1, as _rates does: math.expm1 differs from it in the last bit on about
    4 % of arguments.
    """
    if omega == 0.0:
        return gamma * T
    x = abs(omega) / T
    n = 0.0 if x > 700.0 else 1.0 / float(np.expm1(x))
    if omega > 0:
        return gamma * abs(omega) * (1.0 + n)
    return gamma * abs(omega) * n


@pytest.mark.parametrize("T", [0.1, 1.3, 10.1])
def test_vectorized_rates_match_the_scalar_formula_bit_for_bit(T):
    """Zero of either sign, gaps of 1e-300, |omega|/T at and just above 700, far tails, a log-spaced bulk."""
    at = 700.0 * T
    above = np.nextafter(at, np.inf)
    assert at / T == 700.0 and above / T > 700.0
    edges = [0.0, -0.0, 1e-300, -1e-300, at, -at, above, -above, 1e4, -1e4]
    bulk = np.geomspace(1e-6, 1e3, 1000) * np.random.default_rng(7).choice([-1.0, 1.0], 1000)
    omega = np.r_[edges, bulk]
    expected = np.array([scalar_rate(w, T, 0.8) for w in omega.tolist()])
    assert _rates(omega, T, 0.8).tobytes() == expected.tobytes()
    assert np.array([bath_rate(w, T, 0.8) for w in omega.tolist()]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (-math.inf, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                  (1.0, 1.0, math.nan), (1.0, 1.0, -1.0)])
def test_bath_rate_rejects_non_finite_frequency_and_bad_gamma(args):
    with pytest.raises(ValueError, match="must be finite"):
        bath_rate(*args)


def heat_hq(h):
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=h, J34=h + 1.3)
    return build_hamiltonian(spec), chain_ends(spec)


def sigma_x_tables(H, sites):
    """H's eigenvalues and the transition table of sigma_x at each site, as evaluate_heat_diode makes them."""
    eigensystem = _eigensystem(H)
    n = len(eigensystem[0]).bit_length() - 1
    return eigensystem[0], {site: _transitions(eigensystem, site_operator(n, site, SIGMA_X)) for site in sites}


@pytest.mark.parametrize("h, cutoff", [(None, 0.0), (None, 0.5), (5.0, 0.0), (9.0, 0.0)])
def test_shared_generator_matches_fresh_assembly_per_bias(h, cutoff):
    """One set of tables used for both biases gives a fresh assembly's L for each, entry for entry.

    h = None is the three-spin chain, otherwise six-spin Heat_HQ on its critical line.
    """
    H, (first, last) = (small_hamiltonian(3), (1, 3)) if h is None else heat_hq(h)
    eps, tables = sigma_x_tables(H, (first, last))
    for T1, Tn in ((10.1, 0.1), (0.1, 10.1)):
        baths = [ThermalBathSpec(first, T1, 0.8, cutoff), ThermalBathSpec(last, Tn, 0.8, cutoff)]
        shared = _heat_liouvillian(eps, tables, baths)[0].matrix
        fresh = assemble_global_liouvillian(H, baths)[0].matrix
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(shared, attr), getattr(fresh, attr))


def test_heat_point_diagonalizes_once_and_tables_each_site_once(monkeypatch):
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3)
    eigensystem, transitions = globalbath._eigensystem, globalbath._transitions
    diagonalized, couplings = [], []

    def counted_eigensystem(H):
        diagonalized.append(H)
        return eigensystem(H)

    def counted_transitions(eigensys, coupling):
        couplings.append(coupling)
        return transitions(eigensys, coupling)

    monkeypatch.setattr(globalbath, "_eigensystem", counted_eigensystem)
    monkeypatch.setattr(globalbath, "_transitions", counted_transitions)
    evaluate_heat_diode(spec)
    assert len(diagonalized) == 1
    assert len(couplings) == 2
    for coupling, site in zip(couplings, chain_ends(spec)):
        assert np.array_equal(coupling.matrix, site_operator(6, site, SIGMA_X).matrix)


def test_heat_builders_refuse_no_bath_and_a_site_outside_the_chain():
    H = heat_hq(5.0)[0]
    with pytest.raises(ValueError, match="need at least one bath"):
        assemble_global_liouvillian(H, [])
    with pytest.raises(ValueError, match="site 7 out of range for 6 sites"):
        assemble_global_liouvillian(H, [ThermalBathSpec(site=7, temperature=1.0)])


def test_zero_coupling_fails_with_the_degenerate_steady_state_error():
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3)
    with pytest.raises(RuntimeError, match=r"64 x 64 block\) is singular.*use steady_states\(\)"):
        evaluate_heat_diode(spec, gamma=0.0)


@pytest.mark.parametrize("bad", ["H", "coupling"])
@pytest.mark.parametrize("entry", [0.3j, math.nan, math.inf])
def test_eigen_operators_refuse_non_hermitian_or_non_finite_input(bad, entry):
    # a NaN passes any test of the form max|H - H^dag| > tol; unchecked, a NaN H gives the frequencies [nan]
    H, C = exchange_xx(2, 1, 2).matrix.copy(), site_operator(2, 1, SIGMA_X).matrix.copy()
    (H if bad == "H" else C)[0, 1] += entry
    with pytest.raises(ValueError, match=f"{bad} must be finite and Hermitian"):
        eigen_operators(H, C)


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        ThermalBathSpec(site=1, temperature=-1.0)
    with pytest.raises(ValueError):
        ThermalBathSpec(site=0, temperature=1.0)
    with pytest.raises(ValueError):
        ThermalBathSpec(site=1, temperature=1.0, gamma=-0.5)
    with pytest.raises(ValueError):
        ThermalBathSpec(site=1, temperature=1.0, secular_cutoff=-0.1)
    for field in ("temperature", "gamma", "secular_cutoff"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ThermalBathSpec(site=1, **{"temperature": 1.0, field: bad})


@pytest.mark.parametrize("kwargs", [{"T_H": math.inf}, {"T_H": math.nan}, {"T_C": math.nan}, {"gamma": math.nan}])
def test_evaluate_heat_diode_rejects_non_finite_baths(kwargs):
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3)
    with pytest.raises(ValueError, match="must be finite"):
        evaluate_heat_diode(spec, **kwargs)


def test_single_qubit_thermalizes_to_gibbs():
    H = Operator(0.9 * SIGMA_Z.astype(complex))
    bath = ThermalBathSpec(site=1, temperature=0.7)
    L, U = assemble_global_liouvillian(H, [bath])
    rho_e = steady_state_solve(L).rho_ss.matrix
    rho = U @ rho_e @ U.conj().T
    gibbs = np.diag(np.exp(-np.diag(H.matrix).real / 0.7))
    gibbs = gibbs / np.trace(gibbs)
    assert np.abs(rho - gibbs).max() < 1e-12


def test_equal_temperature_chain_reaches_gibbs():
    """Two baths at the same T drive the chain to the global Gibbs state."""
    T = 2.0
    H = small_hamiltonian(3)
    baths = [ThermalBathSpec(site=1, temperature=T), ThermalBathSpec(site=3, temperature=T)]
    L, U = assemble_global_liouvillian(H, baths)
    rho_e = steady_state_solve(L).rho_ss.matrix
    rho = U @ rho_e @ U.conj().T

    w = np.linalg.eigvalsh(H.matrix)
    ve = np.linalg.eigh(H.matrix)[1]
    gibbs = (ve * np.exp(-w / T)) @ ve.conj().T
    gibbs = gibbs / np.trace(gibbs).real
    assert np.abs(rho - gibbs).max() < 1e-10

    # no heat flows anywhere at equal temperatures
    for bath in baths:
        assert abs(full_space_heat_current(H, bath, rho)) < 1e-10


def random_factor(rng, d, r):
    """B with rho = B B' a random state of rank r."""
    B = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return B / np.linalg.norm(B)


def generator_action(L, U, rho):
    """L applied to rho in the computational basis: U L[U' rho U] U'."""
    return U @ unvectorize(L.matrix @ vectorize(U.conj().T @ rho @ U)) @ U.conj().T


def test_generator_matches_dissipator_sum():
    """L vec(rho) equals -i[H, rho] + sum_b D_b[rho] entry for entry, on full-rank two-spin states."""
    rng = np.random.default_rng(4)
    H = small_hamiltonian(2)
    baths = [ThermalBathSpec(site=1, temperature=0.5), ThermalBathSpec(site=2, temperature=3.0)]
    L, U = assemble_global_liouvillian(H, baths)
    jumps = [cluster_jumps(eigen_operators(H, site_operator(2, b.site, SIGMA_X)), b) for b in baths]
    for _ in range(5):
        B = random_factor(rng, 4, 4)
        got = generator_action(L, U, B @ B.conj().T)
        assert np.abs(got - gkls_action(H.matrix, jumps, B)).max() < 1e-10


def test_heat_currents_balance_out_of_equilibrium():
    H = small_hamiltonian(3)
    baths = [ThermalBathSpec(site=1, temperature=4.0), ThermalBathSpec(site=3, temperature=0.2)]
    L, U = assemble_global_liouvillian(H, baths)
    rho_e = steady_state_solve(L).rho_ss.matrix
    rho = U @ rho_e @ U.conj().T
    K1, K3 = (full_space_heat_current(H, bath, rho) for bath in baths)
    assert K1 > 1e-6  # the hot bath heats the chain
    assert abs(K1 + K3) < 1e-10
    # the energy-basis flux form of the same state, with no rotation
    eps, tables = sigma_x_tables(H, (1, 3))
    pairs = _heat_liouvillian(eps, tables, baths)[1]
    assert [heat_current(eps, p, rho_e) for p in pairs] == pytest.approx([K1, K3], abs=1e-12)


def test_evaluate_heat_diode_tuned_point():
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3)
    m = evaluate_heat_diode(spec, T_C=0.1, T_H=10.1, gamma=1.0)
    assert m.K_f == pytest.approx(5.205426e-01, rel=1e-5)
    assert m.R_Q == pytest.approx(1.4010e08, rel=1e-3)
    assert max(m.balance) < 1e-8


@functools.cache
def heat_diode(spec, cutoff):
    """evaluate_heat_diode at T_C = 0.1, T_H = 10.1 and gamma = 1, once per point."""
    return evaluate_heat_diode(spec, T_C=0.1, T_H=10.1, gamma=1.0, secular_cutoff=cutoff)


def test_partial_secular_point_solves_to_positive_states():
    """Heat_HQ at delta = 0.01, h = 5, J34 = 6.3 with cutoff 0.5: PSD states on both biases.

    About 4 s, nearly all in the LU: the cluster jumps couple coherences to
    populations, so each bath's dissipator holds 626k nonzeros (92k under the
    old pairing window) and the solved block has 2048 indices (228 before).
    The point is solved once for this test and the full-space comparison.
    """
    m = heat_diode(ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3), 0.5)
    assert max(m.balance) < 1e-8
    for rho in (m.rho_f, m.rho_r):
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12
    assert m.R_Q > 1.0


def full_space_heat_diode(spec, cutoff):
    """Both biases of evaluate_heat_diode solved on all 4096 indices: the states, rotated back, and bath 1 of each.

    Call with steadystate.reachable patched to return every index.
    """
    H, (first, last) = build_hamiltonian(spec), chain_ends(spec)
    out = []
    for T1, Tn in ((10.1, 0.1), (0.1, 10.1)):
        baths = [ThermalBathSpec(first, T1, 1.0, cutoff), ThermalBathSpec(last, Tn, 1.0, cutoff)]
        L, U = assemble_global_liouvillian(H, baths)
        out.append((U @ steady_state_solve(L).rho_ss.matrix @ U.conj().T, baths[0]))
    return H, out


HEAT_POINTS = [
    pytest.param(ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=h, J34=h + 1.3 + off), 0.0, id=f"h={h},off={off}")
    for h in (1.0, 5.0, 7.5, 10.0)
    for off in (-0.3, 0.0, 0.3)
] + [
    pytest.param(ModelSpec(variant=Variant.LINEAR_REFERENCE, h=5.0), 0.0, id="linear"),
    pytest.param(ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3), 0.5, id="cutoff=0.5"),
]


@pytest.mark.parametrize("spec, cutoff", HEAT_POINTS)
def test_heat_diode_matches_the_full_space_route(spec, cutoff, monkeypatch):
    """The energy-basis block route against a solve of the whole L and tr(H D[rho]) from the one-bath L.

    The full-space solve factors all 4096 indices (steadystate.reachable patched).  The reverse
    bias at h >= 7.5 relaxes through a mode at ~1e-13 of the spectral scale and the cutoff-0.5
    reverse bias through one at ~1e-10, so there rounding moves rho_r by up to 1.1e-4 (2.2e-7
    at cutoff 0.5) between the two solves; elsewhere both states agree to 1e-10.  Each K is
    compared with full_space_heat_current of the same state, a trace over the one-bath
    generator rather than heat_current's pair sum: the rotation into the energy basis loses
    up to 1.2e-13 (K_f) and 1.2e-14 (K_r) to cancellation.
    """
    m = heat_diode(spec, cutoff)
    monkeypatch.setattr(steadystate, "_BLOCKS", {})  # both patterns are cached: a hit would never call reachable
    monkeypatch.setattr(steadystate, "reachable", lambda L, seeds: np.arange(L.dim))
    H, ((rho_f, bath_f), (rho_r, bath_r)) = full_space_heat_diode(spec, cutoff)
    blocked = spec.h >= 7.5 or cutoff > 0.0
    assert np.abs(m.rho_f.matrix - rho_f).max() < 1e-10
    assert np.abs(m.rho_r.matrix - rho_r).max() < (1e-3 if blocked else 1e-10)
    assert abs(m.K_f - full_space_heat_current(H, bath_f, m.rho_f.matrix)) < 2e-13
    assert abs(m.K_r - full_space_heat_current(H, bath_r, m.rho_r.matrix)) < 2e-14
    assert max(m.balance) < 1e-12


@functools.cache
def sigma_x_pairs(h, site):
    """eigen_operators of sigma_x at one site of heat_hq(h), once per h and site."""
    return eigen_operators(heat_hq(h)[0], site_operator(6, site, SIGMA_X))


def dense_gkls_residual(h, rho, T1, Tn):
    """max |-i[H, rho] + sum_b D_b[rho]| at heat_hq(h), baths at T1 on site 1 and Tn on site 6, from gkls_action.

    The baths are those of heat_diode; the jumps come from eigen_operators and bath_rate alone.
    """
    H, (first, last) = heat_hq(h)
    baths = [ThermalBathSpec(first, T1, 1.0), ThermalBathSpec(last, Tn, 1.0)]
    w, v = np.linalg.eigh(rho)
    B = v * np.sqrt(np.clip(w, 0.0, None))  # rho = B B'
    return np.abs(gkls_action(H.matrix, [cluster_jumps(sigma_x_pairs(h, b.site), b) for b in baths], B)).max()


@pytest.mark.parametrize("h", [1.0, 5.0])
def test_heat_states_are_null_vectors_of_the_dense_gkls_oracle(h):
    """The block-route states of the on-line full-space points, checked independently of the solver.

    At these points the full-space solve returns the block solve's states bit for bit, so only
    the dense oracle checks them.  Measured residuals: 1.0e-15 to 4.0e-15.
    """
    m = heat_diode(ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=h, J34=h + 1.3), 0.0)
    assert dense_gkls_residual(h, m.rho_f.matrix, 10.1, 0.1) <= 1e-12
    assert dense_gkls_residual(h, m.rho_r.matrix, 0.1, 10.1) <= 1e-12


def test_dense_state_check_sees_a_rate_off_by_a_millionth(monkeypatch):
    """Rates of the site-1 bath scaled by 1 + 1e-6 in the solver only: the oracle sees a wrong state.

    The site-1 table's values are scaled by sqrt(1 + 1e-6), so each of its pairs weighs 1 + 1e-6 more.
    Measured: 2.6e-8 on the forward state (the blocked reverse state stays at 4.0e-15).
    """
    transitions, site_1 = globalbath._transitions, site_operator(6, 1, SIGMA_X).matrix

    def scaled(eigensystem, coupling):
        rows, cols, values, freqs, inverse = transitions(eigensystem, coupling)
        if np.array_equal(coupling.matrix, site_1):
            values = values * math.sqrt(1.0 + 1e-6)
        return rows, cols, values, freqs, inverse

    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3)
    with monkeypatch.context() as patch:  # the oracle's eigen_operators use the true tables
        patch.setattr(globalbath, "_transitions", scaled)
        m = evaluate_heat_diode(spec, T_C=0.1, T_H=10.1, gamma=1.0)
    assert dense_gkls_residual(5.0, m.rho_f.matrix, 10.1, 0.1) > 1e-12


@pytest.mark.parametrize("h, cutoff", [(5.0, 0.0), (9.0, 0.0), (5.0, 0.5)])
def test_heat_generator_acts_as_the_dense_gkls_oracle(h, cutoff):
    """L applied to random states equals -i[H, rho] + sum_b D_b[rho] built from eigen_operators and bath_rate.

    Six-spin Heat_HQ on its critical line, both biases, one random state of rank 8 each;
    D_b[rho] = sum_C X_C rho X_C' - 1/2 {X_C'X_C, rho} with the cluster jumps of each bath, in
    the computational basis (gkls_action).  No pair table or CSR enters the oracle.  Measured
    differences are at most 1.8e-15 on entries of size 0.4-0.75.
    """
    H, (first, last) = heat_hq(h)
    pairs = {site: sigma_x_pairs(h, site) for site in (first, last)}  # both biases
    rng = np.random.default_rng(21)
    for T1, Tn in ((10.1, 0.1), (0.1, 10.1)):
        baths = [ThermalBathSpec(first, T1, 1.0, cutoff), ThermalBathSpec(last, Tn, 1.0, cutoff)]
        L, U = assemble_global_liouvillian(H, baths)
        B = random_factor(rng, 64, 8)
        want = gkls_action(H.matrix, [cluster_jumps(pairs[bath.site], bath) for bath in baths], B)
        assert np.abs(generator_action(L, U, B @ B.conj().T) - want).max() < 1e-12


def test_evaluate_heat_diode_solves_each_bias_with_steady_state_solve(monkeypatch):
    """Both biases go through the one steady-state entry point, by its globalbath name."""
    dims = []

    def counting(L):
        dims.append(L.dim)
        return steady_state_solve(L)

    monkeypatch.setattr(globalbath, "steady_state_solve", counting)
    evaluate_heat_diode(ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3))
    assert dims == [4096, 4096]


@pytest.mark.parametrize("J34", [0.0, 12.0])
def test_degenerate_heat_points_are_refused(J34):
    """fig7a's h = 0 points, where the secular generator has 2 and 3 steady states.

    The two numbers in the message are roundoff (probe gain ~1e17, second eigenvalue
    ~1e-16), so only the format and their exponents' range are pinned.
    """
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=0.0, J34=J34)
    with pytest.raises(RuntimeError) as err:
        evaluate_heat_diode(spec)
    assert re.fullmatch(
        r"trace-constrained system is numerically singular \(probe gain \d\.\de\+1[0-9], second eigenvalue "
        r"\d\.\de-1[3-9]\); the steady state is degenerate \(delta = 0\?\) - use steady_states\(\) instead",
        str(err.value),
    )


def test_evaluate_heat_diode_rejects_wrong_variant():
    """Only Heat_HQ and LinearReference carry heat; every other variant is refused before a solve."""
    for variant in set(Variant) - {Variant.HEAT_HQ, Variant.LINEAR_REFERENCE}:
        want = f"^heat transport is defined for Heat_HQ/LinearReference, got {variant.value}$"
        with pytest.raises(ValueError, match=want):
            evaluate_heat_diode(ModelSpec(variant=variant))

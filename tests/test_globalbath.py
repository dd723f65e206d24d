import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spindiode.globalbath import (
    ThermalBathSpec,
    _cluster,
    assemble_global_liouvillian,
    bath_rate,
    eigen_operators,
    evaluate_heat_diode,
    global_dissipator,
    heat_current,
)
from spindiode.liouville import unvectorize, vectorize
from spindiode.models import ModelSpec, Variant
from spindiode.spinops import SIGMA_X, SIGMA_Z, Operator, coupling_zz, exchange_xx, site_operator
from spindiode.steadystate import steady_state_solve


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


def dense_cluster_dissipator(H, bath):
    """Dense oracle sum_C D[X_C] with X_C = sum_{w in C} sqrt(rate(w)) A(w), column-stacked vec.

    The clusters C chain the sorted frequencies whose neighbours lie at most
    the cutoff apart; D[X] = X . X' - 1/2 {X'X, .}.
    """
    n = H.matrix.shape[0].bit_length() - 1
    pairs = sorted(eigen_operators(H, site_operator(n, bath.site, SIGMA_X)), key=lambda p: p[0])
    clusters = [[pairs[0]]]
    for (w_prev, _), pair in zip(pairs, pairs[1:]):
        if pair[0] - w_prev > bath.secular_cutoff:
            clusters.append([])
        clusters[-1].append(pair)
    eye = np.eye(H.matrix.shape[0])
    D = np.zeros((eye.size, eye.size), dtype=complex)
    for cluster in clusters:
        X = sum(math.sqrt(bath_rate(w, bath.temperature, bath.gamma)) * A.matrix for w, A in cluster)
        XdX = X.conj().T @ X
        D += np.kron(X.conj(), X) - 0.5 * np.kron(eye, XdX) - 0.5 * np.kron(XdX.T, eye)
    return D


@pytest.mark.parametrize("cutoff", [0.0, 0.5])
def test_secular_dissipator_matches_dense_oracle(cutoff):
    """Cutoff 0 against the equal-frequency pairing, cutoff 0.5 against the cluster jumps."""
    H = small_hamiltonian(3)
    bath = ThermalBathSpec(site=1, temperature=1.3, gamma=0.8, secular_cutoff=cutoff)
    oracle = dense_secular_dissipator
    if cutoff > 0:
        freqs = [w for w, _ in eigen_operators(H, site_operator(3, 1, SIGMA_X))]
        assert any(0 < abs(wi - wj) <= cutoff for wi in freqs for wj in freqs)
        oracle = dense_cluster_dissipator
    D = global_dissipator(H, bath).superop()
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

    The no-jump part -1/2 {X'X, .} only adds Choi terms along the maximally
    entangled vector Omega, so off Omega the Choi matrix of the dissipator is
    that of its jump part, sum_C |X_C>><<X_C|, and must be PSD.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = Operator(a + a.conj().T)
    bath = ThermalBathSpec(site=site, temperature=temperature, secular_cutoff=cutoff)
    L, (dis,) = assemble_global_liouvillian(H, [bath])

    C = choi(dis.matrix_energy.toarray())
    omega = vectorize(np.eye(8)) / math.sqrt(8)
    P = np.eye(64) - np.outer(omega, omega)
    assert np.abs(C - C.conj().T).max() < 1e-12 * np.abs(C).max()
    assert np.linalg.eigvalsh(P @ C @ P).min() > -1e-12 * np.abs(C).max()

    L = L.dense()
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
    L, diss = assemble_global_liouvillian(H, [bath])
    rho_e = steady_state_solve(L).rho_ss.matrix
    U = diss[0].U
    rho = U @ rho_e @ U.conj().T
    gibbs = np.diag(np.exp(-np.diag(H.matrix).real / 0.7))
    gibbs = gibbs / np.trace(gibbs)
    assert np.abs(rho - gibbs).max() < 1e-12


def test_equal_temperature_chain_reaches_gibbs():
    """Two baths at the same T drive the chain to the global Gibbs state."""
    T = 2.0
    H = small_hamiltonian(3)
    baths = [ThermalBathSpec(site=1, temperature=T), ThermalBathSpec(site=3, temperature=T)]
    L, diss = assemble_global_liouvillian(H, baths)
    rho_e = steady_state_solve(L).rho_ss.matrix
    U = diss[0].U
    rho = U @ rho_e @ U.conj().T

    w = np.linalg.eigvalsh(H.matrix)
    ve = np.linalg.eigh(H.matrix)[1]
    gibbs = (ve * np.exp(-w / T)) @ ve.conj().T
    gibbs = gibbs / np.trace(gibbs).real
    assert np.abs(rho - gibbs).max() < 1e-10

    # no heat flows anywhere at equal temperatures
    for d in diss:
        assert abs(heat_current(H, d, Operator(rho))) < 1e-10


def test_dissipator_apply_is_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(2)
    H = small_hamiltonian(3)
    d = global_dissipator(H, ThermalBathSpec(site=1, temperature=1.3))
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    out = d.apply(rho)
    assert abs(np.trace(out)) < 1e-10
    assert np.abs(out - out.conj().T).max() < 1e-10


def test_generator_matches_dissipator_sum():
    """L vec(rho) equals -i[H, rho] + sum_b D_b[rho] entry for entry."""
    rng = np.random.default_rng(4)
    H = small_hamiltonian(2)
    baths = [ThermalBathSpec(site=1, temperature=0.5), ThermalBathSpec(site=2, temperature=3.0)]
    L, diss = assemble_global_liouvillian(H, baths)
    U = diss[0].U
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        rho_e = U.conj().T @ rho @ U
        lhs_e = unvectorize(L.matrix @ vectorize(rho_e))
        lhs = U @ lhs_e @ U.conj().T
        He = np.diag(np.linalg.eigvalsh(H.matrix)).astype(complex)
        Hc = U @ He @ U.conj().T
        rhs = -1j * (Hc @ rho - rho @ Hc)
        for d in diss:
            rhs = rhs + d.apply(rho)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_heat_currents_balance_out_of_equilibrium():
    H = small_hamiltonian(3)
    baths = [ThermalBathSpec(site=1, temperature=4.0), ThermalBathSpec(site=3, temperature=0.2)]
    L, diss = assemble_global_liouvillian(H, baths)
    rho_e = steady_state_solve(L).rho_ss.matrix
    U = diss[0].U
    rho = Operator(U @ rho_e @ U.conj().T)
    K1 = heat_current(H, diss[0], rho)
    K3 = heat_current(H, diss[1], rho)
    assert K1 > 1e-6  # the hot bath heats the chain
    assert abs(K1 + K3) < 1e-10


def test_evaluate_heat_diode_tuned_point():
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3)
    m = evaluate_heat_diode(spec, T_C=0.1, T_H=10.1, gamma=1.0)
    assert m.K_f == pytest.approx(5.205426e-01, rel=1e-5)
    assert m.R_Q == pytest.approx(1.4010e08, rel=1e-3)
    assert max(m.balance) < 1e-8


def test_partial_secular_point_solves_to_positive_states():
    """Heat_HQ at delta = 0.01, h = 5, J34 = 6.3 with cutoff 0.5: PSD states on both biases.

    About 4 s, nearly all in the LU: the cluster jumps couple coherences to
    populations, so each bath's dissipator holds 626k nonzeros (92k under the
    old pairing window) and the solved block has 2048 indices (228 before).
    """
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3)
    m = evaluate_heat_diode(spec, T_C=0.1, T_H=10.1, gamma=1.0, secular_cutoff=0.5)
    assert max(m.balance) < 1e-8
    for rho in (m.rho_f, m.rho_r):
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12
    assert m.R_Q > 1.0


def test_evaluate_heat_diode_rejects_wrong_variant():
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.01, J34=-6.3)
    with pytest.raises(ValueError):
        evaluate_heat_diode(spec)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spindiode.liouville import DissipatorKind, DissipatorSpec, assemble_liouvillian, unvectorize, vectorize
from spindiode.models import ModelSpec, Variant, critical_j34
from spindiode.observables import (
    bias_dissipators,
    bond_current,
    concurrence,
    contrast,
    evaluate_diode,
    fidelity_mixed,
    fidelity_pure,
    magnetization_profile,
    rectification,
    spin_current_op,
)
from spindiode.spinops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_state,
    exchange_xx,
    product_state,
    site_operator,
)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_current_operator_matrix():
    j = spin_current_op(2, 1, 2).matrix
    expected = 2.0 * (np.kron(SIGMA_X, SIGMA_Y) - np.kron(SIGMA_Y, SIGMA_X))
    assert_allclose(j, expected, atol=1e-15)
    assert np.abs(j - j.conj().T).max() < 1e-15


def test_current_sign_convention():
    """d<sz_i>/dt = -<j_ij> under the bond Hamiltonian alone."""
    rng = np.random.default_rng(3)
    H = exchange_xx(2, 1, 2).matrix
    j = spin_current_op(2, 1, 2).matrix
    z1 = site_operator(2, 1, SIGMA_Z).matrix
    z2 = site_operator(2, 2, SIGMA_Z).matrix
    for _ in range(5):
        rho = random_density(rng, 4)
        drho = -1j * (H @ rho - rho @ H)
        dz1 = np.trace(z1 @ drho).real
        dz2 = np.trace(z2 @ drho).real
        flow = np.trace(j @ rho).real
        assert abs(dz1 + flow) < 1e-12
        assert abs(dz2 - flow) < 1e-12


def test_interior_continuity_against_generator():
    """tr(sz_k L(rho)) = <j_in> - <j_out> on bath-free interior sites."""
    n = 4
    H = exchange_xx(n, 1, 2)
    for b in range(2, n):
        H = H + exchange_xx(n, b, b + 1)
    L = assemble_liouvillian(
        H,
        [
            DissipatorSpec(site=1, gamma=0.9, lam=0.5),
            DissipatorSpec(site=n, gamma=1.3, lam=0.0),
        ],
    )
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = random_density(rng, 2**n)
        drho = unvectorize(L.matrix @ vectorize(rho))
        for k in (2, 3):
            zk = site_operator(n, k, SIGMA_Z).matrix
            lhs = np.trace(zk @ drho).real
            j_in = bond_current(rho, n, (k - 1, k))
            j_out = bond_current(rho, n, (k, k + 1))
            assert abs(lhs - (j_in - j_out)) < 1e-12


def test_rectification_edges():
    assert rectification(1.0, -0.5) == pytest.approx(2.0)
    assert rectification(0.03, -1e-20) == math.inf
    assert rectification(0.0, 0.0) == math.inf


def test_contrast_edges():
    assert contrast(1.0, -1.0) == pytest.approx(0.0)
    assert contrast(0.03, 0.0) == pytest.approx(1.0)
    assert math.isnan(contrast(0.5, 0.5))
    # near-perfect diode: contrast just below one
    c = contrast(2.9e-2, -1.7e-7)
    assert 0.99 < c < 1.0


def test_magnetization_profile_product_states():
    psi = product_state("dud")
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert_allclose(magnetization_profile(rho), [-1.0, 1.0, -1.0], atol=1e-14)
    with pytest.raises(ValueError):
        magnetization_profile(np.eye(3) / 3.0)


def test_fidelity_pure_matches_mixed():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    for kind in ("psi+", "psi-", "phi+"):
        psi = bell_state(kind)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        # the Uhlmann route takes square roots, so machine eps inflates to ~1e-8
        assert fidelity_pure(rho, psi) == pytest.approx(fidelity_mixed(rho, proj), abs=1e-7)


def test_fidelity_mixed_properties():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 8)
    sig = random_density(rng, 8)
    assert fidelity_mixed(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert fidelity_mixed(rho, sig) == pytest.approx(fidelity_mixed(sig, rho), abs=1e-10)
    assert 0.0 < fidelity_mixed(rho, sig) < 1.0
    with pytest.raises(ValueError):
        fidelity_mixed(rho, random_density(rng, 4))
    indefinite = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        fidelity_mixed(indefinite, random_density(rng, 4))


def test_concurrence_oracles():
    psi = bell_state("psi-")
    bell = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)

    du = product_state("du")
    assert concurrence(np.outer(du.amplitudes, du.amplitudes.conj())) == pytest.approx(
        0.0, abs=1e-12
    )

    # Werner family: C = max(0, (3p - 1)/2)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 1.0):
        w = p * bell + (1.0 - p) * np.eye(4) / 4.0
        assert concurrence(w) == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-12)

    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8.0)


def test_bias_setup():
    """bias_dissipators puts the hot bath first, on the first chain end under forward bias."""
    spin = DissipatorKind.SPIN_LADDER
    fwd, rev = bias_dissipators(ModelSpec(variant=Variant.DIODE), gamma=2.0)
    assert [(d.site, d.gamma, d.lam, d.kind) for d in fwd] == [(1, 2.0, 0.5, spin), (6, 2.0, 0.0, spin)]
    assert [(d.site, d.gamma, d.lam, d.kind) for d in rev] == [(6, 2.0, 0.5, spin), (1, 2.0, 0.0, spin)]
    extra = [DissipatorSpec(site=3, gamma=0.1, kind=DissipatorKind.DEPHASE_T2)]
    decay = DissipatorSpec(site=7, gamma=0.4, kind=DissipatorKind.DECAY_T1)
    for ds in bias_dissipators(ModelSpec(variant=Variant.SHADOW_CORRECTED, gamma_S=0.4), 1.0, extra):
        assert ds[2:] == [decay] + extra
    fwd, rev = bias_dissipators(ModelSpec(variant=Variant.EXTENDED_XXZM))
    assert [d.site for d in fwd] == [1, 7] and [d.site for d in rev] == [7, 1]


def test_symmetric_chain_has_no_rectification():
    spec = ModelSpec(variant=Variant.LINEAR_REFERENCE, Delta=0.0, h=0.0)
    d = evaluate_diode(spec, gamma=1.0)
    assert d.J_r == pytest.approx(-d.J_f, abs=1e-10)
    assert d.R == pytest.approx(1.0, abs=1e-8)
    assert d.C == pytest.approx(0.0, abs=1e-8)


def test_evaluate_diode_on_tuned_point():
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.01, J34=critical_j34(5.0))
    d = evaluate_diode(spec, gamma=1.0)
    assert d.J_f == pytest.approx(2.923092e-02, rel=1e-5)
    assert d.J_r == pytest.approx(-1.6899e-07, rel=1e-3)
    assert d.R == pytest.approx(1.7297e05, rel=1e-3)
    assert d.C == pytest.approx(0.999988, abs=1e-5)
    assert max(d.continuity) < 1e-8
    for rho in (d.rho_f, d.rho_r):
        m = rho.matrix
        assert abs(np.trace(m) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(m).min() > -1e-9

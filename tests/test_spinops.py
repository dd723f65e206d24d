import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spindiode.spinops import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Operator,
    StateVector,
    bell_state,
    coupling_zz,
    exchange_xx,
    kron_states,
    partial_trace,
    product_state,
    site_operator,
    standard_initial_states,
    swap_operator,
    total_sz,
)


def test_pauli_algebra():
    assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)
    assert_allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=1e-15)
    assert_allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y, atol=1e-15)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert_allclose(s @ s, np.eye(2), atol=1e-15)
    assert_allclose(SIGMA_PLUS + SIGMA_MINUS, SIGMA_X, atol=1e-15)
    assert_allclose(SIGMA_PLUS - SIGMA_MINUS, 1j * SIGMA_Y, atol=1e-15)


def test_basis_convention():
    # first basis vector is spin-down with sigma_z eigenvalue -1
    down = product_state("d")
    up = product_state("u")
    assert_array_equal(down.amplitudes, [1, 0])
    assert_array_equal(up.amplitudes, [0, 1])
    assert_allclose(SIGMA_Z @ down.amplitudes, -down.amplitudes)
    assert_allclose(SIGMA_Z @ up.amplitudes, up.amplitudes)
    # raising takes down to up
    assert_allclose(SIGMA_PLUS @ down.amplitudes, up.amplitudes)
    assert_allclose(SIGMA_MINUS @ up.amplitudes, down.amplitudes)
    assert_allclose(SIGMA_MINUS @ down.amplitudes, 0 * down.amplitudes)


def test_site_operator_embedding():
    # site 1 is the slowest-varying tensor factor
    op = site_operator(3, 1, SIGMA_Z)
    expect = np.kron(SIGMA_Z, np.kron(np.eye(2), np.eye(2)))
    assert_allclose(op.matrix, expect)
    op = site_operator(3, 3, SIGMA_X)
    assert_allclose(op.matrix, np.kron(np.eye(4), SIGMA_X))
    with pytest.raises(ValueError):
        site_operator(3, 0, SIGMA_X)
    with pytest.raises(ValueError):
        site_operator(3, 4, SIGMA_X)


@pytest.mark.parametrize("local", [SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS])
def test_site_operator_matches_kron_oracle(local):
    for n in range(1, 8):
        for site in range(1, n + 1):
            want = np.kron(np.kron(np.eye(2 ** (site - 1)), local), np.eye(2 ** (n - site)))
            assert_array_equal(site_operator(n, site, local).matrix, want)


def test_exchange_and_zz():
    xx = exchange_xx(2, 1, 2).matrix
    manual = np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
    assert_allclose(xx, manual, atol=1e-15)
    # equivalent ladder form 2(s+s- + s-s+)
    ladder = 2 * (
        np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS)
    )
    assert_allclose(xx, ladder, atol=1e-15)
    zz = coupling_zz(2, 1, 2).matrix
    assert_allclose(zz, np.kron(SIGMA_Z, SIGMA_Z), atol=1e-15)


def test_operator_class_basics():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = Operator(m)
    assert op.dim == 8
    assert op.n_sites == 3
    assert not op.is_hermitian()
    herm = Operator(m + m.conj().T)
    assert herm.is_hermitian()
    assert_allclose(op.dag().matrix, m.conj().T)
    assert_allclose((op + herm).matrix, m + herm.matrix)
    assert_allclose((2.5 * op).matrix, 2.5 * m)
    assert_allclose((op @ herm).matrix, m @ herm.matrix)
    assert abs(op.trace() - np.trace(m)) < 1e-12
    with pytest.raises(ValueError):
        Operator(np.zeros((3, 3)))  # not a power of two
    with pytest.raises(ValueError):
        Operator(np.zeros((4, 2)))


def test_statevector_normalization():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])
    v = StateVector([1.0, 1.0], normalize=True)
    assert_allclose(np.linalg.norm(v.amplitudes), 1.0)
    rho = v.density()
    assert_allclose(rho.trace(), 1.0)
    assert rho.is_hermitian()


def test_product_state_strings():
    psi = product_state("du")
    assert_array_equal(psi.amplitudes, [0, 1, 0, 0])
    psi = product_state("ud")
    assert_array_equal(psi.amplitudes, [0, 0, 1, 0])
    plus = product_state("+")
    assert_allclose(plus.amplitudes, [1, 1] / np.sqrt(2))
    minus = product_state("-")
    assert_allclose(minus.amplitudes, [1, -1] / np.sqrt(2))
    with pytest.raises(ValueError):
        product_state("dx")


def test_bell_states():
    psim = bell_state("psi-")
    # (|ud> - |du>)/sqrt2 in the (slow site 1, fast site 2) ordering
    expect = np.zeros(4)
    expect[2] = 1 / np.sqrt(2)
    expect[1] = -1 / np.sqrt(2)
    assert_allclose(psim.amplitudes, expect)
    psip = bell_state("psi+")
    expect[1] = 1 / np.sqrt(2)
    assert_allclose(psip.amplitudes, expect)
    for name in ("phi+", "phi-"):
        v = bell_state(name)
        assert_allclose(np.linalg.norm(v.amplitudes), 1.0)
    assert abs(bell_state("phi+").overlap(bell_state("phi-"))) < 1e-15
    with pytest.raises(ValueError):
        bell_state("sigma+")


def test_kron_states():
    left = product_state("d")
    right = product_state("u")
    both = kron_states(left, right)
    assert_array_equal(both.amplitudes, product_state("du").amplitudes)
    three = kron_states(left, bell_state("psi-"), right)
    assert three.n_sites == 4


def test_swap_operator():
    P = swap_operator(2, 1, 2)
    psi = product_state("du")
    assert_allclose(P @ psi, product_state("ud").amplitudes)
    # P sigma_i P = sigma_j
    for n, (i, j) in ((4, (2, 3)), (6, (3, 4))):
        P = swap_operator(n, i, j)
        assert_allclose((P @ P).matrix, np.eye(2**n), atol=1e-15)
        zi = site_operator(n, i, SIGMA_Z).matrix
        zj = site_operator(n, j, SIGMA_Z).matrix
        assert_allclose(P.matrix @ zi @ P.matrix, zj, atol=1e-15)


def test_total_sz():
    op = total_sz(3)
    psi = product_state("uud")
    assert_allclose(op.expect(psi.density()), 1.0, atol=1e-14)
    psi = product_state("ddd")
    assert_allclose(op.expect(psi.density()), -3.0, atol=1e-14)


def _partial_trace_oracle(rho, n, keep):
    """Independent einsum-based partial trace for cross-checking."""
    t = rho.reshape((2,) * (2 * n))
    keep0 = [k - 1 for k in keep]
    traced = [i for i in range(n) if i not in keep0]
    # pair up bra/ket axes of each traced site
    src = list(range(2 * n))
    for i in traced:
        src[n + i] = src[i]
    out_axes = [src[i] for i in keep0] + [src[n + i] for i in keep0]
    res = np.einsum(t, src, out_axes)
    d = 2 ** len(keep)
    return res.reshape(d, d)


def test_partial_trace_product_state():
    psi = kron_states(product_state("d"), bell_state("psi-"), product_state("u"))
    rho = psi.density()
    red = partial_trace(rho, keep=(2, 3))
    assert_allclose(red.matrix, bell_state("psi-").density().matrix, atol=1e-14)
    red1 = partial_trace(rho, keep=(1,))
    assert_allclose(red1.matrix, product_state("d").density().matrix, atol=1e-14)


def test_partial_trace_random_oracle():
    rng = np.random.default_rng(23)
    n = 4
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for keep in [(1,), (2, 4), (1, 3), (2,), (1, 2, 3)]:
        got = partial_trace(Operator(rho), keep=keep)
        want = _partial_trace_oracle(rho, n, keep)
        assert_allclose(got.matrix, want, atol=1e-13)
        assert_allclose(got.trace(), 1.0, atol=1e-12)


def test_standard_initial_states():
    states = standard_initial_states(6)
    assert len(states) == 8
    for s in states:
        assert s.n_sites == 6
        assert_allclose(np.linalg.norm(s.amplitudes), 1.0, atol=1e-14)
    up, down, ghz = states[0], states[1], states[2]
    assert_array_equal(down.amplitudes, product_state("dddddd").amplitudes)
    assert abs(up.overlap(down)) < 1e-15
    assert_allclose(abs(ghz.overlap(up)), 1 / np.sqrt(2), atol=1e-14)
    assert_allclose(abs(ghz.overlap(down)), 1 / np.sqrt(2), atol=1e-14)
    neel_a, neel_b, neel_ghz = states[5], states[6], states[7]
    assert_array_equal(neel_a.amplitudes, product_state("ududud").amplitudes)
    assert_array_equal(neel_b.amplitudes, product_state("dududu").amplitudes)
    assert_allclose(abs(neel_ghz.overlap(neel_a)), 1 / np.sqrt(2), atol=1e-14)

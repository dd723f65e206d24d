import numpy as np
import pytest
from numpy.testing import assert_allclose

from spindiode.jordanwigner import (
    build_jw_hamiltonian,
    fermionic_current_metrics,
    fermionic_current_op,
    jw_fermions,
)
from spindiode.models import ModelSpec, Variant, build_hamiltonian, critical_j34
from spindiode.observables import evaluate_diode
from spindiode.spinops import SIGMA_MINUS, SIGMA_PLUS, site_operator


def anticomm(a, b):
    return a @ b + b @ a


def test_canonical_anticommutation_relations():
    n = 4
    f = jw_fermions(n)
    dim = 2**n
    for i in range(n):
        ai = f.a[i].matrix
        for j in range(n):
            aj = f.a[j].matrix
            assert_allclose(anticomm(ai, aj), np.zeros((dim, dim)), atol=1e-13)
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert_allclose(anticomm(ai, aj.conj().T), expected, atol=1e-13)


def test_number_operators():
    f = jw_fermions(3)
    for i in range(3):
        ai = f.a[i].matrix
        assert_allclose(f.number_ops[i].matrix, ai.conj().T @ ai, atol=1e-14)
        # strings are diagonal, so the number operator is the plain spin one
        raising = site_operator(3, i + 1, SIGMA_PLUS).matrix
        lowering = site_operator(3, i + 1, SIGMA_MINUS).matrix
        assert_allclose(f.number_ops[i].matrix, raising @ lowering, atol=1e-14)


def test_adjacent_hop_is_stringless():
    """For neighboring sites the strings cancel: a_i' a_{i+1} = s+_i s-_{i+1}."""
    f = jw_fermions(4)
    for i in (1, 2, 3):
        lhs = f.a[i - 1].matrix.conj().T @ f.a[i].matrix
        rhs = (
            site_operator(4, i, SIGMA_PLUS).matrix
            @ site_operator(4, i + 1, SIGMA_MINUS).matrix
        )
        assert_allclose(lhs, rhs, atol=1e-13)


def test_jw_hamiltonian_matches_spin_hamiltonian():
    """The fermionic form equals the spin form minus the constant Delta*J."""
    for delta, Delta, J34 in ((0.01, 5.0, -6.3), (0.1, 2.0, -3.3), (0.0, 0.0, -1.3)):
        spec = ModelSpec(variant=Variant.DIODE, Delta=Delta, delta=delta, J34=J34)
        Hf = build_jw_hamiltonian(spec).matrix
        Hs = build_hamiltonian(spec).matrix
        shift = Delta * 1.0
        assert np.abs(Hf - (Hs - shift * np.eye(64))).max() < 1e-12


def test_jw_hamiltonian_rejects_other_variants():
    for variant in set(Variant) - {Variant.DIODE}:
        want = f"^fermionic form is defined for the Diode variant, got {variant.value}$"
        with pytest.raises(ValueError, match=want):
            build_jw_hamiltonian(ModelSpec(variant=variant))


def test_particle_current_is_half_the_spin_current():
    """n_i = (1 + sz_i)/2, so the particle current carries half the scale."""
    from spindiode.observables import spin_current_op

    f = jw_fermions(6)
    jf = fermionic_current_op(f, 1, 2).matrix
    js = spin_current_op(6, 1, 2).matrix
    assert np.abs(2.0 * jf - js).max() < 1e-12


def test_fermionic_rectification_matches_spin():
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.01, J34=critical_j34(5.0))
    mf = fermionic_current_metrics(spec, gamma=1.0)
    ms = evaluate_diode(spec, gamma=1.0)
    assert mf.J_f == pytest.approx(0.5 * ms.J_f, rel=1e-9)
    assert mf.R == pytest.approx(ms.R, rel=1e-9)
    assert max(mf.continuity) < 1e-8

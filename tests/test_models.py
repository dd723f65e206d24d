import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spindiode.models import (
    ModelSpec,
    Variant,
    build_hamiltonian,
    chain_ends,
    critical_j34,
    critical_j34_heat,
    current_bonds,
    hamiltonian_terms,
    restrict_to_sites,
)
from spindiode.spinops import (
    bell_state,
    exchange_xx,
    kron_states,
    product_state,
    site_operator,
    swap_operator,
    total_sz,
    SIGMA_Z,
)

RNG = np.random.default_rng(1234)


def random_diode_spec():
    return ModelSpec(
        variant=Variant.DIODE,
        Delta=float(RNG.uniform(-10, 10)),
        delta=float(RNG.uniform(-0.5, 0.5)),
        J34=float(RNG.uniform(-12, 12)),
    )


def test_n_sites_per_variant():
    expected = {
        Variant.DIODE: 6,
        Variant.DIODE_PERTURBED: 6,
        Variant.FIELD_H1: 6,
        Variant.SIGN_H2: 6,
        Variant.HEAT_HQ: 6,
        Variant.EXTENDED_MXX: 7,
        Variant.EXTENDED_XXM: 7,
        Variant.EXTENDED_XXZM: 7,
        Variant.SHADOW_CORRECTED: 7,
        Variant.LINEAR_REFERENCE: 5,
    }
    for variant, n in expected.items():
        assert ModelSpec(variant=variant).n_sites == n


def test_critical_lines():
    assert critical_j34(5.0) == -6.3
    assert critical_j34(-5.0) == 6.3  # mirror branch flips the sign
    assert critical_j34(0.0) == -1.3
    arr = critical_j34(np.array([1.0, -1.0, 0.0]))
    assert_allclose(arr, [-2.3, 2.3, -1.3])
    assert critical_j34_heat(5.0) == 6.3
    assert_allclose(critical_j34_heat(np.array([0.0, 2.0])), [1.3, 3.3])


def test_diode_hamiltonian_is_hermitian():
    for _ in range(5):
        H = build_hamiltonian(random_diode_spec())
        assert H.is_hermitian()
        assert H.dim == 64


def test_diode_term_structure():
    """Rebuild the six-spin Hamiltonian from primitive couplings."""
    spec = ModelSpec(variant=Variant.DIODE, Delta=2.0, delta=0.3, J34=-1.7)
    H = build_hamiltonian(spec)
    n = 6
    manual = (
        exchange_xx(n, 1, 2).matrix
        + (1 + 0.3) * exchange_xx(n, 2, 3).matrix
        + exchange_xx(n, 2, 4).matrix
        + (-1.7) * exchange_xx(n, 3, 4).matrix
        + exchange_xx(n, 3, 5).matrix
        + exchange_xx(n, 4, 5).matrix
        + exchange_xx(n, 5, 6).matrix
        + 2.0 * np.kron(np.kron(SIGMA_Z, SIGMA_Z), np.eye(16))
    )
    assert_allclose(H.matrix, manual, atol=1e-14)


def test_eigenstate_identity_restricted():
    # H on spins 1-4 applied to |dd>|Psi-> gives the closed-gate eigenvalue
    # relation with a single delta-proportional leak term
    for _ in range(20):
        spec = random_diode_spec()
        H14 = restrict_to_sites(spec, range(1, 5))
        psi = kron_states(product_state("dd"), bell_state("psi-"))
        lhs = H14 @ psi
        rhs = (
            np.sqrt(2) * spec.delta * product_state("dudd").amplitudes
            + (spec.Delta - 2 * spec.J34) * psi.amplitudes
        )
        assert np.abs(lhs - rhs).max() < 1e-12


def test_interference_identity():
    # symmetric couplings out of an antisymmetric pair state cancel exactly
    psi = kron_states(product_state("d"), bell_state("psi-"), product_state("u"))
    op = exchange_xx(4, 3, 4).matrix + exchange_xx(4, 2, 4).matrix
    assert np.abs(op @ psi.amplitudes).max() < 1e-14
    psi2 = kron_states(product_state("d"), bell_state("psi-"), product_state("d"))
    assert np.abs(op @ psi2.amplitudes).max() < 1e-14


def test_closed_gate_eigenstate_full_chain():
    for _ in range(10):
        Delta = float(RNG.uniform(-10, 10))
        spec = ModelSpec(
            variant=Variant.DIODE, Delta=Delta, delta=0.0, J34=critical_j34(Delta)
        )
        H = build_hamiltonian(spec)
        psi = kron_states(bell_state("psi-"), bell_state("psi-"), product_state("dd"))
        v = H @ psi
        e = np.vdot(psi.amplitudes, v)
        assert np.linalg.norm(v - e * psi.amplitudes) < 1e-12


def test_swap_symmetry_at_zero_asymmetry():
    P = swap_operator(6, 3, 4)
    spec0 = ModelSpec(variant=Variant.DIODE, Delta=3.0, delta=0.0, J34=2.0)
    H0 = build_hamiltonian(spec0)
    comm = H0.matrix @ P.matrix - P.matrix @ H0.matrix
    assert np.abs(comm).max() < 1e-14
    spec1 = spec0.replace(delta=0.2)
    H1 = build_hamiltonian(spec1)
    comm1 = H1.matrix @ P.matrix - P.matrix @ H1.matrix
    assert np.abs(comm1).max() > 0.1


def test_total_sz_conservation():
    """Every variant except the shadow-corrected one conserves total S^z."""
    conserving = [
        Variant.DIODE,
        Variant.DIODE_PERTURBED,
        Variant.FIELD_H1,
        Variant.SIGN_H2,
        Variant.HEAT_HQ,
        Variant.EXTENDED_MXX,
        Variant.EXTENDED_XXM,
        Variant.EXTENDED_XXZM,
        Variant.LINEAR_REFERENCE,
    ]
    for variant in conserving:
        kwargs = {"delta": 0.17, "J34": -2.5}
        if variant in (Variant.FIELD_H1, Variant.SIGN_H2, Variant.HEAT_HQ):
            kwargs["h"] = 1.3
        else:
            kwargs["Delta"] = 2.1
        spec = ModelSpec(variant=variant, **kwargs)
        H = build_hamiltonian(spec)
        Z = total_sz(spec.n_sites)
        comm = H.matrix @ Z.matrix - Z.matrix @ H.matrix
        assert np.abs(comm).max() < 1e-13, variant
    # the pair-raising coupling to the shadow qubit breaks the symmetry
    spec = ModelSpec(variant=Variant.SHADOW_CORRECTED, Delta=2.1, delta=0.17, J34=-2.5)
    H = build_hamiltonian(spec)
    Z = total_sz(7)
    comm = H.matrix @ Z.matrix - Z.matrix @ H.matrix
    assert np.abs(comm).max() > 0.01


def test_field_variant_matches_diode_with_z_field():
    # H1 replaces the ZZ anisotropy with fields on the first two sites
    h = 1.9
    spec = ModelSpec(variant=Variant.FIELD_H1, h=h, delta=0.05, J34=-3.0)
    H = build_hamiltonian(spec)
    base = ModelSpec(variant=Variant.DIODE, Delta=0.0, delta=0.05, J34=-3.0)
    manual = (
        build_hamiltonian(base).matrix
        + h * site_operator(6, 1, SIGMA_Z).matrix
        + h * site_operator(6, 2, SIGMA_Z).matrix
    )
    assert_allclose(H.matrix, manual, atol=1e-14)


def test_sign_variant_flips_two_bonds():
    kwargs = {"h": -2.0, "delta": 0.07, "J34": 3.3}
    H1 = build_hamiltonian(ModelSpec(variant=Variant.FIELD_H1, **kwargs))
    H2 = build_hamiltonian(ModelSpec(variant=Variant.SIGN_H2, **kwargs))
    diff = H2.matrix - H1.matrix
    flipped = -2 * (1 + 0.07) * exchange_xx(6, 2, 3).matrix - 2 * exchange_xx(6, 3, 5).matrix
    assert_allclose(diff, flipped, atol=1e-14)


def test_sign_variant_closes_on_symmetric_bell():
    # flipped bond signs move the dark state from |Psi-> to |Psi+>
    h = -4.0
    spec = ModelSpec(variant=Variant.SIGN_H2, h=h, delta=0.0, J34=-h + 1.3)
    H = build_hamiltonian(spec)
    psi = kron_states(product_state("dd"), bell_state("psi+"), product_state("dd"))
    v = H @ psi
    e = np.vdot(psi.amplitudes, v)
    assert np.linalg.norm(v - e * psi.amplitudes) < 1e-12


def test_heat_variant_adds_global_field():
    spec = ModelSpec(variant=Variant.HEAT_HQ, h=2.0, delta=0.01, J34=3.3, omega_global=5.0)
    H = build_hamiltonian(spec)
    base = spec.replace(omega_global=0.0)
    diff = H.matrix - build_hamiltonian(base).matrix
    assert_allclose(diff, 5.0 * total_sz(6).matrix, atol=1e-13)


def test_heat_variant_rejects_delta_anisotropy():
    with pytest.raises(ValueError):
        ModelSpec(variant=Variant.HEAT_HQ, h=2.0, Delta=1.0)


def test_extended_prepended_shifts_sites():
    # prepending an XX bond renumbers the core chain to sites 2..7
    spec7 = ModelSpec(variant=Variant.EXTENDED_XXM, Delta=2.0, delta=0.1, J34=-1.5)
    H7 = build_hamiltonian(spec7)
    assert H7.dim == 128
    core = ModelSpec(variant=Variant.DIODE, Delta=2.0, delta=0.1, J34=-1.5)
    shifted = np.kron(np.eye(2), build_hamiltonian(core).matrix)
    manual = shifted + exchange_xx(7, 1, 2).matrix
    assert_allclose(H7.matrix, manual, atol=1e-14)


def test_extended_appended_adds_tail_bond():
    spec7 = ModelSpec(variant=Variant.EXTENDED_MXX, Delta=2.0, delta=0.1, J34=-1.5)
    H7 = build_hamiltonian(spec7)
    core = ModelSpec(variant=Variant.DIODE, Delta=2.0, delta=0.1, J34=-1.5)
    manual = np.kron(build_hamiltonian(core).matrix, np.eye(2)) + exchange_xx(7, 6, 7).matrix
    assert_allclose(H7.matrix, manual, atol=1e-14)


def test_extended_xxz_prepended_has_both_anisotropies():
    spec = ModelSpec(variant=Variant.EXTENDED_XXZM, Delta=2.0, delta=0.1, J34=-1.5)
    H = build_hamiltonian(spec)
    base = ModelSpec(variant=Variant.EXTENDED_XXM, Delta=2.0, delta=0.1, J34=-1.5)
    diff = H.matrix - build_hamiltonian(base).matrix
    manual = 2.0 * (site_operator(7, 1, SIGMA_Z) @ site_operator(7, 2, SIGMA_Z)).matrix
    assert_allclose(diff, manual, atol=1e-14)


def test_shadow_coupling_terms():
    spec = ModelSpec(
        variant=Variant.SHADOW_CORRECTED, Delta=5.0, delta=0.1, J34=-6.3, A=0.25
    )
    H = build_hamiltonian(spec)
    base = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=-6.3)
    H6 = np.kron(build_hamiltonian(base).matrix, np.eye(2))
    from spindiode.spinops import SIGMA_MINUS, SIGMA_PLUS

    raise2 = (
        site_operator(7, 3, SIGMA_PLUS) @ site_operator(7, 7, SIGMA_PLUS)
    ).matrix
    raise2 = raise2 + raise2.conj().T
    drive = spec.resolved_omega_drive()
    assert drive == pytest.approx(5.0 + 1.2)
    manual = H6 + 0.25 * raise2 - drive * site_operator(7, 7, SIGMA_Z).matrix
    assert_allclose(H.matrix, manual, atol=1e-13)


def test_linear_reference_is_uniform_chain():
    spec = ModelSpec(variant=Variant.LINEAR_REFERENCE, Delta=4.0, h=0.5)
    H = build_hamiltonian(spec)
    manual = (
        exchange_xx(5, 1, 2).matrix
        + exchange_xx(5, 2, 3).matrix
        + exchange_xx(5, 3, 4).matrix
        + exchange_xx(5, 4, 5).matrix
        + 4.0 * (site_operator(5, 1, SIGMA_Z) @ site_operator(5, 2, SIGMA_Z)).matrix
        + 0.5 * (site_operator(5, 1, SIGMA_Z) + site_operator(5, 2, SIGMA_Z)).matrix
    )
    assert_allclose(H.matrix, manual, atol=1e-14)


def test_linear_reference_ignores_gate_parameters():
    a = build_hamiltonian(ModelSpec(variant=Variant.LINEAR_REFERENCE, Delta=4.0))
    b = build_hamiltonian(
        ModelSpec(variant=Variant.LINEAR_REFERENCE, Delta=4.0, delta=0.3, J34=9.0)
    )
    assert_allclose(a.matrix, b.matrix)


def test_local_fields():
    fields = (0.1, 0.0, 0.0, 0.0, 0.0, -0.2)
    spec = ModelSpec(variant=Variant.DIODE, Delta=1.0, local_fields=fields)
    H = build_hamiltonian(spec)
    base = spec.replace(local_fields=None)
    diff = H.matrix - build_hamiltonian(base).matrix
    manual = (
        0.1 * site_operator(6, 1, SIGMA_Z).matrix
        - 0.2 * site_operator(6, 6, SIGMA_Z).matrix
    )
    assert_allclose(diff, manual, atol=1e-14)
    with pytest.raises(ValueError):
        ModelSpec(variant=Variant.DIODE, local_fields=(0.1, 0.2))


def test_spec_validation_rejects_inactive_fields():
    with pytest.raises(ValueError):
        ModelSpec(variant=Variant.DIODE, h=1.0)  # field form not part of Diode
    with pytest.raises(ValueError):
        ModelSpec(variant=Variant.FIELD_H1, Delta=1.0)
    with pytest.raises(ValueError):
        ModelSpec(variant=Variant.DIODE, h3=0.1)  # gate fields need the perturbed variant
    with pytest.raises(ValueError):
        ModelSpec(variant=Variant.DIODE, A=0.2)


def test_spec_json_roundtrip():
    spec = ModelSpec(
        variant=Variant.DIODE_PERTURBED, Delta=5.0, delta=0.03, J34=-6.3, h3=0.02
    )
    clone = ModelSpec.from_json(spec.to_json())
    assert clone == spec
    doc = json.loads(spec.to_json())
    assert doc["variant"] == "DiodePerturbed"
    with pytest.raises(ValueError):
        ModelSpec.from_json('{"variant": "Diode", "bogus": 1}')


@pytest.mark.parametrize("J", [2.0, 0.5, float("nan")])
def test_j_is_the_unit_and_must_be_one(J):
    with pytest.raises(ValueError, match="J is the unit"):
        ModelSpec(variant=Variant.DIODE, J=J)
    # documents written with the default still load
    doc = json.loads(ModelSpec(variant=Variant.DIODE, Delta=5.0).to_json())
    assert doc["J"] == 1.0
    assert ModelSpec.from_json(json.dumps(doc)).J == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "field, variant",
    [
        ("Delta", Variant.DIODE),
        ("delta", Variant.DIODE),
        ("J34", Variant.DIODE),
        ("h", Variant.FIELD_H1),
        ("omega_global", Variant.HEAT_HQ),
        ("h3", Variant.DIODE_PERTURBED),
        ("h4", Variant.DIODE_PERTURBED),
        ("delta_prime", Variant.DIODE_PERTURBED),
        ("A", Variant.SHADOW_CORRECTED),
        ("omega_drive", Variant.SHADOW_CORRECTED),
        ("gamma_S", Variant.SHADOW_CORRECTED),
    ],
)
def test_non_finite_fields_are_named(field, variant, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelSpec(variant=variant, **{field: bad})


def test_non_finite_local_field_is_named():
    with pytest.raises(ValueError, match="^local_fields must be finite"):
        ModelSpec(variant=Variant.DIODE, local_fields=(0.0, 0.0, float("nan"), 0.0, 0.0, 0.0))


def test_chain_ends_and_bonds():
    # ShadowCorrected keeps its baths on the six-spin chain, off the shadow qubit 7
    expected = {
        Variant.DIODE: (1, 6),
        Variant.DIODE_PERTURBED: (1, 6),
        Variant.FIELD_H1: (1, 6),
        Variant.SIGN_H2: (1, 6),
        Variant.HEAT_HQ: (1, 6),
        Variant.EXTENDED_MXX: (1, 7),
        Variant.EXTENDED_XXM: (1, 7),
        Variant.EXTENDED_XXZM: (1, 7),
        Variant.SHADOW_CORRECTED: (1, 6),
        Variant.LINEAR_REFERENCE: (1, 5),
    }
    assert set(expected) == set(Variant)
    for variant, (first, last) in expected.items():
        spec = ModelSpec(variant=variant)
        assert chain_ends(spec) == (first, last)
        assert current_bonds(spec) == ((first, first + 1), (last - 1, last))
        # both current bonds are XX bonds of the Hamiltonian
        bonds = {t.sites for t in hamiltonian_terms(spec) if t.kind == "xx"}
        assert {(first, first + 1), (last - 1, last)} <= bonds


def test_restrict_to_sites_errors():
    with pytest.raises(ValueError, match="contiguous"):
        restrict_to_sites(ModelSpec(variant=Variant.DIODE, Delta=1.0), [1, 3, 4])

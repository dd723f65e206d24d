import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spindiode import liouville
from spindiode.liouville import (
    DissipatorKind,
    DissipatorSpec,
    _pairs,
    _superop,
    _table,
    assemble_liouvillian,
    decoherence_channels,
    propagate,
    reachable,
    unvectorize,
    vectorize,
)
from spindiode.globalbath import ThermalBathSpec, assemble_global_liouvillian
from spindiode.models import (
    ModelSpec,
    Variant,
    build_hamiltonian,
    chain_ends,
    critical_j34,
    critical_j34_heat,
    restrict_to_sites,
)
from spindiode.observables import bias_dissipators
from spindiode.spinops import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    Operator,
    _jw_annihilator,
    exchange_xx,
    product_state,
    site_operator,
    standard_initial_states,
)
from spindiode.steadystate import steady_state_solve


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def brute_force_rhs(H, jumps, rho):
    """-i[H, rho] + sum_k rate_k D[L_k](rho), no vectorization anywhere."""
    out = np.zeros_like(rho)
    if H is not None:
        out += -1j * (H @ rho - rho @ H)
    for L, rate in jumps:
        LdL = L.conj().T @ L
        out += rate * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def channel_superop(spec: DissipatorSpec, n):
    """The superoperator of one local channel on an n-spin register: the generator with H = 0."""
    return assemble_liouvillian(np.zeros((2**n, 2**n)), [spec]).matrix


def ladder_jumps(spec: DissipatorSpec, n):
    up = site_operator(n, spec.site, SIGMA_PLUS).matrix
    dn = site_operator(n, spec.site, SIGMA_MINUS).matrix
    return [(up, spec.gamma * spec.lam), (dn, spec.gamma * (1 - spec.lam))]


def test_vectorize_roundtrip():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 8)
    assert_allclose(unvectorize(vectorize(rho)), rho)
    # column stacking: vec[k] runs down the first column first
    m = np.arange(4).reshape(2, 2)
    assert_allclose(vectorize(m), [0, 2, 1, 3])


def test_vectorization_identity():
    # vec(A rho C) = (C^T kron A) vec(rho)
    rng = np.random.default_rng(5)
    d = 4
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    C = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = random_density(rng, d)
    lhs = vectorize(A @ rho @ C)
    rhs = np.kron(C.T, A) @ vectorize(rho)
    assert_allclose(lhs, rhs, atol=1e-13)


def test_jump_superop_oracle():
    rng = np.random.default_rng(7)
    d = 8
    L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    S = _superop(None, _pairs(_table([(0.7, L)])), d)
    for _ in range(5):
        rho = random_density(rng, d)
        got = unvectorize(S @ vectorize(rho))
        want = brute_force_rhs(None, [(L, 0.7)], rho)
        assert_allclose(got, want, atol=1e-12)


def test_hamiltonian_superop_oracle():
    rng = np.random.default_rng(9)
    H = build_hamiltonian(ModelSpec(variant=Variant.DIODE, Delta=2.0, delta=0.1, J34=-3.0))
    S = assemble_liouvillian(H, ()).matrix
    rho = random_density(rng, 64)
    got = unvectorize(S @ vectorize(rho))
    want = brute_force_rhs(H.matrix, [], rho)
    assert_allclose(got, want, atol=1e-12)


def test_assembled_liouvillian_matches_brute_force():
    """Full generator against the unvectorized master equation."""
    rng = np.random.default_rng(11)
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=-6.3)
    H = build_hamiltonian(spec)
    diss = [
        DissipatorSpec(site=1, gamma=1.0, lam=0.5),
        DissipatorSpec(site=6, gamma=1.0, lam=0.0),
    ]
    L = assemble_liouvillian(H, diss)
    jumps = []
    for dspec in diss:
        jumps.extend(ladder_jumps(dspec, 6))
    worst = 0.0
    for _ in range(50):
        rho = random_density(rng, 64)
        got = unvectorize(L.matrix @ vectorize(rho))
        want = brute_force_rhs(H.matrix, jumps, rho)
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-12


def test_liouvillian_preserves_trace():
    # rows of L sum against the identity: tr(L rho) = 0 for any rho,
    # i.e. vec(I)^dag L = 0
    spec = ModelSpec(variant=Variant.DIODE, Delta=3.0, delta=0.05, J34=-4.3)
    H = build_hamiltonian(spec)
    L = assemble_liouvillian(
        H,
        [DissipatorSpec(site=1, gamma=0.7, lam=0.5), DissipatorSpec(site=6, gamma=1.3, lam=0.1)],
    )
    ivec = vectorize(np.eye(64, dtype=complex))
    assert np.abs(ivec @ L.matrix).max() < 1e-12


def test_dissipator_spec_validation():
    with pytest.raises(ValueError):
        DissipatorSpec(site=0, gamma=1.0)
    with pytest.raises(ValueError):
        DissipatorSpec(site=1, gamma=-0.5)
    with pytest.raises(ValueError):
        DissipatorSpec(site=1, gamma=1.0, lam=1.5)


def test_dissipator_spec_rejects_non_finite_gamma():
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma must be finite"):
            DissipatorSpec(site=1, gamma=gamma)
    with pytest.raises(ValueError, match="lifetime T"):
        decoherence_channels(6, float("nan"))


@pytest.mark.parametrize("H", [np.eye(3), np.ones((4, 2)), np.zeros((2, 2, 2))])
def test_assembly_rejects_hamiltonian_of_bad_shape(H):
    with pytest.raises(ValueError):
        assemble_liouvillian(H, [DissipatorSpec(site=1, gamma=1.0)])


def test_assembly_rejects_non_hermitian_hamiltonian():
    # -i(H rho - rho H^dag) is no commutator; left through, the steady-state solve blames degeneracy
    H = exchange_xx(3, 1, 2) + exchange_xx(3, 2, 3) + 0.3j * site_operator(3, 1, SIGMA_X)
    baths = [DissipatorSpec(site=1, gamma=1.0, lam=0.5), DissipatorSpec(site=3, gamma=1.0)]
    with pytest.raises(ValueError, match="Hermitian"):
        assemble_liouvillian(H, baths)
    # a NaN passes any test of the form max|H - H^dag| > tol, and would reach L and its steady state
    for bad in (np.nan, np.inf):
        H = (exchange_xx(3, 1, 2) + exchange_xx(3, 2, 3)).matrix.copy()
        H[0, 0] = bad
        with pytest.raises(ValueError, match="H must be finite and Hermitian"):
            assemble_liouvillian(H, baths)


def string_fermion(n, site):
    """a_site = (prod_{k<site} -sigma_z^(k)) sigma_-^(site), as a product of dense site operators."""
    a = site_operator(n, site, SIGMA_MINUS).matrix
    for k in range(1, site):
        a = -site_operator(n, k, SIGMA_Z).matrix @ a
    return a


def channel_jumps(spec: DissipatorSpec, n):
    """(jump, rate) pairs of one channel, written out kind by kind."""
    g, lam, site = spec.gamma, spec.lam, spec.site
    if spec.kind is DissipatorKind.DECAY_T1:
        return [(site_operator(n, site, SIGMA_MINUS).matrix, g)]
    if spec.kind is DissipatorKind.DEPHASE_T2:
        return [(site_operator(n, site, SIGMA_Z).matrix, g)]
    if spec.kind is DissipatorKind.SPIN_LADDER:
        return ladder_jumps(spec, n)
    a = string_fermion(n, site)
    return [(a.conj().T, g * lam), (a, g * (1 - lam))]


@st.composite
def channel_mixes(draw):
    """2-4 sites, H cut from a six-spin Diode chain or None, and a random channel list."""
    n = draw(st.integers(2, 4))
    H = None
    if draw(st.booleans()):
        energy = st.floats(-10.0, 10.0)
        spec = ModelSpec(
            variant=Variant.DIODE,
            Delta=draw(energy),
            delta=draw(st.floats(-0.5, 0.5)),
            J34=draw(energy),
            local_fields=draw(st.none() | st.tuples(*[energy] * 6)),
        )
        start = draw(st.integers(1, 7 - n))
        H = restrict_to_sites(spec, range(start, start + n))
    channel = st.builds(
        DissipatorSpec,
        site=st.integers(1, n),
        gamma=st.just(0.0) | st.floats(0.0, 3.0),
        lam=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        kind=st.sampled_from(list(DissipatorKind)),
    )
    specs = draw(st.lists(channel, min_size=0 if H is not None else 1, max_size=5))
    return H, specs, draw(st.integers(0, 2**32 - 1))


@given(channel_mixes())
def test_assembly_matches_brute_force_on_random_channel_mixes(mix):
    H, specs, seed = mix
    L = assemble_liouvillian(H, specs)
    n = H.n_sites if H is not None else max(s.site for s in specs)
    # reachable() reads the stored pattern, so a stored zero would grow a block
    assert np.all(L.matrix.data != 0)
    jumps = [jump for spec in specs for jump in channel_jumps(spec, n)]
    rho = random_density(np.random.default_rng(seed), 2**n)
    got = unvectorize(L.matrix @ vectorize(rho))
    want = brute_force_rhs(None if H is None else H.matrix, jumps, rho)
    assert np.abs(got - want).max() < 1e-12
    # the generators of the single terms sum to the same generator
    parts = [channel_superop(spec, n) for spec in specs]
    if H is not None:
        parts.append(assemble_liouvillian(H, ()).matrix)
    assert np.abs(sum(parts) - L.matrix).max() < 1e-12


def test_six_spin_diode_pattern_sizes():
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=critical_j34(5.0))
    H, forward = build_hamiltonian(spec), bias_dissipators(spec)[0]
    assert assemble_liouvillian(H, forward).matrix.nnz == 35840
    assert assemble_liouvillian(H, forward + decoherence_channels(6, 1e3)).matrix.nnz == 39936


@pytest.mark.parametrize("h, nnz", [(5.0, 5694), (9.0, 6024)])
def test_six_spin_heat_pattern_sizes(h, nnz):
    """`reachable` reads the stored pattern: zero-rate transitions must leave no stored zeros."""
    spec = ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=h, J34=critical_j34_heat(h))
    first, last = chain_ends(spec)
    baths = [ThermalBathSpec(first, 10.1), ThermalBathSpec(last, 0.1)]
    L = assemble_global_liouvillian(build_hamiltonian(spec), baths)[0]
    assert L.matrix.nnz == nnz
    assert np.all(L.matrix.data != 0)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
def test_fermion_sign_rule_equals_string_product(n):
    """The sign rule behind the fermion ladders and jw_fermions equals the string product entry for entry."""
    from spindiode.jordanwigner import jw_fermions

    f = jw_fermions(n)
    for site in range(1, n + 1):
        want = string_fermion(n, site)
        assert np.array_equal(_jw_annihilator(n, site), want)
        assert np.array_equal(f.a[site - 1].matrix, want)


def test_local_dissipator_modes():
    # pure decay: lam = 0 leaves only sigma- jumps
    rng = np.random.default_rng(13)
    spec = DissipatorSpec(site=2, gamma=0.9, lam=0.0)
    S = channel_superop(spec, 3)
    dn = site_operator(3, 2, SIGMA_MINUS).matrix
    rho = random_density(rng, 8)
    got = unvectorize(S @ vectorize(rho))
    want = brute_force_rhs(None, [(dn, 0.9)], rho)
    assert_allclose(got, want, atol=1e-13)


def test_decay_and_dephase_kinds():
    rng = np.random.default_rng(15)
    n = 2
    rho = random_density(rng, 4)
    decay = DissipatorSpec(site=1, gamma=0.25, kind=DissipatorKind.DECAY_T1)
    S = channel_superop(decay, n)
    dn = site_operator(n, 1, SIGMA_MINUS).matrix
    assert_allclose(
        unvectorize(S @ vectorize(rho)), brute_force_rhs(None, [(dn, 0.25)], rho), atol=1e-13
    )
    deph = DissipatorSpec(site=2, gamma=0.4, kind=DissipatorKind.DEPHASE_T2)
    S = channel_superop(deph, n)
    z = site_operator(n, 2, SIGMA_Z).matrix
    assert_allclose(
        unvectorize(S @ vectorize(rho)), brute_force_rhs(None, [(z, 0.4)], rho), atol=1e-13
    )


def test_decoherence_channels_rates():
    T = 2000.0
    channels = decoherence_channels(6, T)
    decays = [c for c in channels if c.kind is DissipatorKind.DECAY_T1]
    dephs = [c for c in channels if c.kind is DissipatorKind.DEPHASE_T2]
    assert len(decays) == 6 and len(dephs) == 6
    assert {c.site for c in decays} == set(range(1, 7))
    for c in decays:
        assert c.gamma == pytest.approx(1 / T)
    for c in dephs:
        assert c.gamma == pytest.approx(1 / (4 * T))
    with pytest.raises(ValueError):
        decoherence_channels(6, 0.0)


def test_fermion_ladder_dissipator():
    # fermionic jump at an interior site carries the parity string
    rng = np.random.default_rng(17)
    n = 4
    spec = DissipatorSpec(site=3, gamma=0.8, lam=0.3, kind=DissipatorKind.FERMION_LADDER)
    S = channel_superop(spec, n)
    a = string_fermion(n, 3)
    rho = random_density(rng, 16)
    want = brute_force_rhs(None, [(a.conj().T, 0.8 * 0.3), (a, 0.8 * 0.7)], rho)
    assert_allclose(unvectorize(S @ vectorize(rho)), want, atol=1e-13)


def toy_chain_liouvillian(n=3):
    """Small boundary-driven XX chain for oracle comparisons."""
    H = exchange_xx(n, 1, 2)
    for k in range(2, n):
        H = H + exchange_xx(n, k, k + 1)
    diss = [
        DissipatorSpec(site=1, gamma=1.0, lam=0.5),
        DissipatorSpec(site=n, gamma=1.0, lam=0.0),
    ]
    return H, assemble_liouvillian(H, diss)


def test_propagate_against_dense_expm():
    rng = np.random.default_rng(19)
    _, L = toy_chain_liouvillian(3)
    rho0 = random_density(rng, 8)
    times = [0.0, 0.5, 1.5]
    traj = propagate(L, Operator(rho0), times)
    dense = L.matrix.toarray()
    for t, rho_t in zip(times, traj):
        want = unvectorize(sla.expm(dense * t) @ vectorize(rho0))
        assert_allclose(rho_t.matrix, want, atol=1e-9)
        assert abs(rho_t.trace() - 1.0) < 1e-10


def stepwise_reference(L, rho0, times):
    """Full-space evolution, one expm_multiply per grid step."""
    v = vectorize(rho0)
    out, t_prev = [], 0.0
    for t in times:
        if t > t_prev:
            v = spla.expm_multiply(L.matrix * (t - t_prev), v)
        out.append(unvectorize(v))
        t_prev = t
    return out


GRIDS = {
    "uniform": np.linspace(0.0, 1.0, 5),
    "nonuniform": [0.0, 0.1, 0.35, 0.4, 1.0],
    "late_start_with_repeats": [0.3, 0.3, 0.5, 0.7, 0.7, 0.9],
}


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("initial", ["ghz", "random_full_support"])
def test_block_propagate_matches_full_space_steps(initial, grid):
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=critical_j34(5.0))
    L = assemble_liouvillian(
        build_hamiltonian(spec),
        [DissipatorSpec(site=1, gamma=1.0, lam=0.5), DissipatorSpec(site=6, gamma=1.0, lam=0.0)],
    )
    if initial == "ghz":
        # coherence between all-up and all-down seeds a block beyond the populations
        rho0 = standard_initial_states(6)[2].density().matrix
    else:
        rho0 = random_density(np.random.default_rng(23), 64)
    times = GRIDS[grid]
    traj = propagate(L, Operator(rho0), times)
    for rho_t, want in zip(traj, stepwise_reference(L, rho0, times), strict=True):
        assert np.abs(rho_t.matrix - want).max() < 1e-10


def test_propagate_is_reproducible():
    # expm_multiply's norm estimates draw from numpy's global RNG; the
    # trajectory must not depend on what drew from it before
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=critical_j34(5.0))
    L = assemble_liouvillian(build_hamiltonian(spec), bias_dissipators(spec)[1])
    rho_ss = steady_state_solve(L).rho_ss
    np.random.seed(0)
    first = propagate(L, rho_ss, [0.0, 50.0])
    for _ in range(4):
        np.random.random(100)
        again = propagate(L, rho_ss, [0.0, 50.0])
        for a, b in zip(first, again, strict=True):
            assert np.array_equal(a.matrix, b.matrix)
    # and the caller's stream goes on as if propagate had drawn nothing
    state = np.random.get_state()
    propagate(L, rho_ss, [0.0, 50.0])
    after = np.random.random(3)
    np.random.set_state(state)
    assert np.array_equal(after, np.random.random(3))


def fig4a_liouvillian():
    """The gate-closing dynamics: Delta = 100, J34 = -101, cold bath on site 1."""
    spec = ModelSpec(variant=Variant.DIODE, delta=0.1, Delta=100.0, J34=-101.0)
    return assemble_liouvillian(build_hamiltonian(spec), [DissipatorSpec(site=1, gamma=1.0, lam=0.0)])


def diode_liouvillian():
    """Reverse-bias six-spin diode at Delta = 5 on the critical line."""
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=critical_j34(5.0))
    return assemble_liouvillian(build_hamiltonian(spec), bias_dissipators(spec)[1])


def restricted_block(L, rho0):
    v = vectorize(rho0)
    return L.restrict(reachable(L, np.flatnonzero(v)))[0]


@pytest.mark.parametrize("case", ["fig4a_forced_krylov", "ghz_forced_dense"])
def test_forced_route_matches_estimated_route(case, monkeypatch):
    # each trajectory is forced onto the route its estimate does not pick
    if case == "fig4a_forced_krylov":  # Delta = 100, 262-dim block
        L, rho0, grid, dense = fig4a_liouvillian(), product_state("dduudd"), np.linspace(0.0, 2.0, 7), True
    else:  # Delta = 5, 926-dim block
        L, rho0, grid, dense = diode_liouvillian(), standard_initial_states(6)[2], np.linspace(0.0, 10.0, 5), False
    picked, estimate = [], liouville._dense_is_cheaper

    def spy(*args):
        picked.append(estimate(*args))
        return picked[-1]

    monkeypatch.setattr(liouville, "_dense_is_cheaper", spy)
    chosen = propagate(L, rho0, grid)
    assert picked == [dense]
    monkeypatch.setattr(liouville, "_dense_is_cheaper", lambda *a: not dense)
    forced = propagate(L, rho0, grid)
    for a, b in zip(chosen, forced, strict=True):
        assert np.abs(a.matrix - b.matrix).max() < 1e-10


def test_route_estimate_picks_dense_only_for_the_gate_dynamics():
    # no solves: only the estimate runs, on the blocks and grids propagate would see
    gate = restricted_block(fig4a_liouvillian(), product_state("dduudd").density().matrix)
    assert gate.shape[0] == 262
    for grid in (np.linspace(0.0, 200.0, 401), [0.0, 100.0, 200.0]):  # fig4a, criterion 9
        assert liouville._dense_is_cheaper(gate, np.asarray(grid, dtype=float))
    L = diode_liouvillian()
    states = standard_initial_states(6)
    blocks = [restricted_block(L, states[k].density().matrix) for k in (0, 2)]
    blocks.append(restricted_block(L, random_density(np.random.default_rng(23), 64)))
    assert [R.shape[0] for R in blocks] == [924, 926, 4096]
    for R in blocks:
        for grid in (np.linspace(0.0, 10.0, 5), [0.0, 50.0]):
            assert not liouville._dense_is_cheaper(R, np.asarray(grid, dtype=float))


def test_propagate_accepts_state_vector():
    spec = ModelSpec(variant=Variant.DIODE, Delta=1.0)
    H = build_hamiltonian(spec)
    L = assemble_liouvillian(H, [DissipatorSpec(site=1, gamma=1.0, lam=0.0)])
    traj = propagate(L, product_state("dduudd"), [0.0, 1.0])
    assert len(traj) == 2
    assert abs(traj[0].trace() - 1.0) < 1e-12
    assert traj[1].is_hermitian(tol=1e-10)


def test_propagate_validates_grid():
    spec = ModelSpec(variant=Variant.DIODE, Delta=1.0)
    L = assemble_liouvillian(build_hamiltonian(spec), [DissipatorSpec(site=1, gamma=1.0)])
    psi = product_state("dduudd")
    with pytest.raises(ValueError):
        propagate(L, psi, [1.0, 0.5])  # not sorted
    with pytest.raises(ValueError):
        propagate(L, psi, [-1.0, 0.5])
    with pytest.raises(ValueError):
        propagate(L, psi, [])
    for bad in ([0.0, np.nan], [np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="times must be finite"):
            propagate(L, psi, bad)


def test_propagate_refuses_non_hermitian_state():
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=critical_j34(5.0))
    L = assemble_liouvillian(build_hamiltonian(spec), [DissipatorSpec(site=1, gamma=1.0, lam=0.0)])
    rho0 = standard_initial_states(6)[2].density().matrix  # GHZ
    skew = np.zeros_like(rho0)
    skew[0, 5] = 1.0  # one-sided: its transpose partner (5, 0) stays empty
    with pytest.raises(ValueError, match="Hermitian"):
        propagate(L, Operator(rho0 + 1e-6 * skew), [0.0, 0.5])
    # within 1e-12 of the norm the state is Hermitized, which closes its
    # support under transposition, and the trajectory is unchanged
    near = propagate(L, Operator(rho0 + 1e-14 * skew), [0.0, 0.5])
    exact = propagate(L, Operator(rho0), [0.0, 0.5])
    for a, b in zip(near, exact, strict=True):
        assert np.array_equal(a.matrix, a.matrix.conj().T)
        assert np.abs(a.matrix - b.matrix).max() < 1e-13

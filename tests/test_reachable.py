"""The reachable block of a Liouvillian against the full-space oracles.

One oracle is the same code with ``reachable`` patched to return every
vec index, so the block and full-space solves differ only in the
subspace they factor.  The other is a complex trace-constrained LU of
the whole of L written here, which shares no code with the real
Hermitian coordinates of ``Liouvillian.restrict``.  ``restrict`` itself is
the oracle of the per-pattern maps through which ``steady_state_solve``
builds the same block.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from spindiode import steadystate
from spindiode.globalbath import ThermalBathSpec, assemble_global_liouvillian, evaluate_heat_diode
from spindiode.jordanwigner import build_jw_hamiltonian
from spindiode.liouville import (
    DissipatorKind,
    DissipatorSpec,
    Liouvillian,
    assemble_liouvillian,
    decoherence_channels,
    propagate,
    reachable,
    unvectorize,
    vectorize,
)
from spindiode.models import ModelSpec, Variant, build_hamiltonian, chain_ends, critical_j34, critical_j34_heat
from spindiode.observables import bias_dissipators
from spindiode.spinops import coupling_zz, exchange_xx
from spindiode.steadystate import steady_state_solve

DIODE = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.1, J34=critical_j34(5.0))


def diode_spin():
    return assemble_liouvillian(build_hamiltonian(DIODE), bias_dissipators(DIODE)[0])


def diode_fermion():
    ladders = [
        DissipatorSpec(site=1, gamma=1.0, lam=0.5, kind=DissipatorKind.FERMION_LADDER),
        DissipatorSpec(site=6, gamma=1.0, lam=0.0, kind=DissipatorKind.FERMION_LADDER),
    ]
    return assemble_liouvillian(build_jw_hamiltonian(DIODE), ladders)


def diode_decoherence():
    extra = decoherence_channels(6, 1e3)
    return assemble_liouvillian(build_hamiltonian(DIODE), bias_dissipators(DIODE, 1.0, extra)[1])


def shadow_corrected():
    spec = ModelSpec(variant=Variant.SHADOW_CORRECTED, Delta=5.0, delta=0.1, J34=critical_j34(5.0))
    return assemble_liouvillian(build_hamiltonian(spec), bias_dissipators(spec)[0])


def heat_spec(h):
    return ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=h, J34=critical_j34_heat(h))


def heat(h):
    """Forward bias: the first site at T_H, in the energy basis."""
    baths = [ThermalBathSpec(site=1, temperature=10.1), ThermalBathSpec(site=6, temperature=0.1)]
    return assemble_global_liouvillian(build_hamiltonian(heat_spec(h)), baths)[0]


# (builder, pinned size of the population block)
CASES = {
    "diode_spin": (diode_spin, 924),
    "diode_fermion": (diode_fermion, 924),
    "diode_decoherence": (diode_decoherence, 924),
    "shadow_corrected": (shadow_corrected, 3432),
    "heat_h5": (lambda: heat(5.0), 64),
    "heat_h9": (lambda: heat(9.0), 66),
}


def population_block(L):
    return reachable(L, np.arange(0, L.dim, L.hilbert_dim + 1))


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    build, size = CASES[request.param]
    return build(), size


def test_block_is_invariant_and_pinned(case):
    L, size = case
    idx = population_block(L)
    assert np.all(np.diff(idx) > 0)
    assert idx.size == size
    inside = np.zeros(L.dim, dtype=bool)
    inside[idx] = True
    assert L.matrix[~inside][:, inside].count_nonzero() == 0


def test_block_steady_state_matches_full_space(case, monkeypatch):
    L, _ = case
    block = steady_state_solve(L).rho_ss.matrix
    monkeypatch.setattr(steadystate, "_BLOCKS", {})  # L's pattern is cached: a hit would never call reachable
    monkeypatch.setattr(steadystate, "reachable", lambda L, seeds: np.arange(L.dim))
    full = steady_state_solve(L).rho_ss.matrix
    assert np.abs(block - full).max() < 1e-10


def test_heat_diode_matches_full_space_down_to_the_blocked_bias_floor(monkeypatch):
    # the reverse bias relaxes through a mode at ~1e-13 of the spectral
    # scale, so 1-ulp changes of L move rho_r by up to ~1e-4 and neither
    # path resolves it to 1e-10 (against a 60-digit solve of the same
    # block: block 3.8e-5 off, full space 7.4e-5); rho_f and both heat
    # currents are resolved, K_r ~ 5e-11 to the solve's 1e-15 floor.  The
    # full-space route: the whole L solved without a block, and
    # K = tr(diag(eps) L_1[rho_e]) with L_1 the generator of bath 1 alone,
    # whose coherent part has no diagonal
    spec = heat_spec(9.0)
    block = evaluate_heat_diode(spec)
    monkeypatch.setattr(steadystate, "_BLOCKS", {})
    monkeypatch.setattr(steadystate, "reachable", lambda L, seeds: np.arange(L.dim))
    H = build_hamiltonian(spec)
    eps = np.linalg.eigvalsh(H.matrix)
    full = []
    for T1, Tn in ((10.1, 0.1), (0.1, 10.1)):
        L, U = assemble_global_liouvillian(H, [ThermalBathSpec(1, T1), ThermalBathSpec(6, Tn)])
        rho_e = steady_state_solve(L).rho_ss.matrix
        L1 = assemble_global_liouvillian(H, [ThermalBathSpec(1, T1)])[0]
        K = float(np.real(eps @ np.diag(unvectorize(L1.matrix @ vectorize(rho_e)))))
        full.append((U @ rho_e @ U.conj().T, K))
    (rho_f, K_f), (_, K_r) = full
    assert np.abs(block.rho_f.matrix - rho_f).max() < 1e-10
    assert abs(block.K_f - K_f) < 1e-13
    assert abs(block.K_r - K_r) < 1e-14


def test_reachable_keeps_imaginary_entries():
    # the coherent part couples |0><0| to the coherences through purely
    # imaginary entries, whose real parts are zero
    L = assemble_liouvillian(np.array([[1.0, 0.5], [0.5, -1.0]]), ())
    assert L.matrix[1, 0].real == 0.0 and L.matrix[1, 0].imag != 0.0
    assert reachable(L, [0]).tolist() == [0, 1, 2, 3]


def test_reachable_follows_the_direction_of_decay():
    # decay maps the excited population onto the ground one and never back
    L = assemble_liouvillian(None, [DissipatorSpec(site=1, gamma=1.0, kind=DissipatorKind.DECAY_T1)])
    sizes = []
    for seed in (0, 3):
        idx = reachable(L, [seed])
        inside = np.isin(np.arange(L.dim), idx)
        assert L.matrix[~inside][:, inside].count_nonzero() == 0
        sizes.append(idx.size)
    assert sorted(sizes) == [1, 2]


def test_dropping_one_block_index_is_caught(monkeypatch):
    L = diode_spin()
    true_block = population_block(L)
    dropped = np.delete(true_block, true_block.size // 2)
    monkeypatch.setattr(steadystate, "_BLOCKS", {})
    monkeypatch.setattr(steadystate, "reachable", lambda L, seeds: dropped)
    with pytest.raises(RuntimeError):
        steady_state_solve(L)


def complex_full_space_solve(L):
    """Trace-constrained complex LU of the whole of L, one refinement step."""
    trace_row = np.zeros((1, L.dim), dtype=complex)
    trace_row[0, :: L.hilbert_dim + 1] = 1.0
    A = sp.vstack([sp.csr_matrix(trace_row), L.matrix[1:]], format="csc")
    b = np.zeros(L.dim, dtype=complex)
    b[0] = 1.0
    lu = spla.splu(A)
    x = lu.solve(b)
    x += lu.solve(b - A @ x)
    rho = unvectorize(x)
    return rho / np.trace(rho)


def test_real_block_solve_matches_complex_full_space_oracle(case):
    L, _ = case
    rho = steady_state_solve(L).rho_ss.matrix
    assert np.abs(rho - complex_full_space_solve(L)).max() < 1e-10


def test_restrict_basis_is_unitary_and_keeps_the_first_population(case):
    L, _ = case
    idx = population_block(L)
    R, Q = L.restrict(idx)
    assert R.format == "csr" and R.dtype == np.float64
    assert abs(Q.conj().T @ Q - sp.identity(idx.size)).max() < 1e-15
    assert Q[:, 0].toarray().ravel().tolist() == [1.0] + [0.0] * (idx.size - 1)
    # a real coordinate vector is an exactly Hermitian matrix
    full = np.zeros(L.dim, dtype=complex)
    full[idx] = Q @ np.random.default_rng(5).standard_normal(idx.size)
    m = unvectorize(full)
    assert np.array_equal(m, m.conj().T)


def test_restricted_block_is_real(case):
    L, _ = case
    idx = population_block(L)
    R, Q = L.restrict(idx)
    block = L.matrix[idx][:, idx]
    rotated = Q.conj().T @ block @ Q
    bound = 1e-15 * abs(block).max()
    assert abs(rotated.imag).max() <= bound
    assert abs(R - rotated.real).max() <= bound


def test_restrict_refuses_index_set_not_closed_under_transposition():
    L = diode_spin()
    idx = population_block(L)
    d = L.hilbert_dim
    coherence = np.flatnonzero(idx % d != idx // d)[0]
    with pytest.raises(ValueError, match="transposition"):
        L.restrict(np.delete(idx, coherence))


def test_restrict_refuses_a_generator_that_breaks_hermiticity():
    """A random complex L has a complex block in Hermitian coordinates: its real part alone is a different generator."""
    rng = np.random.default_rng(5)
    L = Liouvillian(sp.csr_matrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))))
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        L.restrict(np.arange(16))
    with pytest.raises(ValueError, match="does not preserve Hermiticity"):
        propagate(L, np.eye(4) / 4, [0.0, 1.0])
    with pytest.raises(RuntimeError, match="population block: L does not preserve Hermiticity"):
        steady_state_solve(L)


def test_restricted_spectrum_matches_complex_block():
    n = 4
    H = exchange_xx(n, 1, 2) + exchange_xx(n, 2, 3) + exchange_xx(n, 3, 4) + 0.3 * coupling_zz(n, 1, 2)
    L = assemble_liouvillian(
        H, [DissipatorSpec(site=1, gamma=1.0, lam=0.5), DissipatorSpec(site=n, gamma=0.7, lam=0.0)]
    )
    idx = population_block(L)
    R, _ = L.restrict(idx)
    real = la.eigvals(R.toarray())
    cplx = la.eigvals(L.matrix[idx][:, idx].toarray())
    rows, cols = linear_sum_assignment(np.abs(real[:, None] - cplx[None, :]))
    assert real.shape == cplx.shape
    assert np.abs(real[rows] - cplx[cols]).max() < 1e-10


def restrict_block(L):
    """``(idx, R, x -> Q x)`` through reachable and Liouvillian.restrict: the oracle of the cached maps."""
    idx = population_block(L)
    R, Q = L.restrict(idx)
    return idx, R, Q.__matmul__


def spin_biases(variant, extra=(), fermion=False):
    spec = ModelSpec(variant=variant, delta=0.1)
    H = build_jw_hamiltonian(spec) if fermion else build_hamiltonian(spec)
    kind = DissipatorKind.FERMION_LADDER if fermion else DissipatorKind.SPIN_LADDER
    return [assemble_liouvillian(H, [replace(c, kind=kind) if c.kind is DissipatorKind.SPIN_LADDER else c for c in bias])
            for bias in bias_dissipators(spec, 1.0, extra)]


def heat_biases(spec, cutoff=0.0):
    H, (first, last) = build_hamiltonian(spec), chain_ends(spec)
    return [assemble_global_liouvillian(H, [ThermalBathSpec(first, hot, secular_cutoff=cutoff),
                                            ThermalBathSpec(last, cold, secular_cutoff=cutoff)])[0]
            for hot, cold in ((10.1, 0.1), (0.1, 10.1))]


# (both biases' generators, how many of them are also solved): a seven-spin or cutoff-0.5 solve takes
# 0.5-1.6 s, so of the seven-spin variants only ShadowCorrected's forward bias is solved
SOLVED = {Variant.EXTENDED_MXX: 0, Variant.EXTENDED_XXM: 0, Variant.EXTENDED_XXZM: 0, Variant.SHADOW_CORRECTED: 1}
BIT_CASES = {
    **{f"spin_{v.value}": (lambda v=v: spin_biases(v), SOLVED.get(v, 2)) for v in Variant},
    "diode_fermion": (lambda: spin_biases(Variant.DIODE, fermion=True), 2),
    "diode_decoherence": (lambda: spin_biases(Variant.DIODE, decoherence_channels(6, 1e3)), 2),
    "heat_h5": (lambda: heat_biases(heat_spec(5.0)), 2),
    "heat_h9": (lambda: heat_biases(heat_spec(9.0)), 2),
    "heat_cutoff_0.5": (lambda: heat_biases(heat_spec(5.0), 0.5), 1),
    "linear_heat": (lambda: heat_biases(ModelSpec(variant=Variant.LINEAR_REFERENCE, h=5.0)), 2),
}


@pytest.mark.parametrize("name", list(BIT_CASES))
def test_cached_block_is_restricts_block_bit_for_bit(name, monkeypatch):
    """The population block from the per-pattern maps is restrict's, byte for byte, on a miss and on a hit,
    and so is the steady state solved through it."""
    build, solved = BIT_CASES[name]
    for k, L in enumerate(build()):
        idx, R, _ = restrict_block(L)
        monkeypatch.setattr(steadystate, "_BLOCKS", {})
        for _ in ("cold", "warm"):
            got_idx, got, _ = steadystate._population_block(L)
            assert got_idx.tolist() == idx.tolist()
            for a in ("indptr", "indices", "data"):
                assert getattr(got, a).tobytes() == getattr(R, a).tobytes()
        if k < solved:
            monkeypatch.setattr(steadystate, "_BLOCKS", {})
            states = [steady_state_solve(L).rho_ss.matrix.tobytes() for _ in ("cold", "warm")]
            with monkeypatch.context() as m:
                m.setattr(steadystate, "_population_block", restrict_block)
                assert states == [steady_state_solve(L).rho_ss.matrix.tobytes()] * 2

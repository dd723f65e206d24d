import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from spindiode import steadystate
from spindiode.globalbath import ThermalBathSpec, assemble_global_liouvillian
from spindiode.jordanwigner import build_jw_hamiltonian
from spindiode.liouville import (
    DissipatorKind,
    DissipatorSpec,
    Liouvillian,
    assemble_liouvillian,
    reachable,
    unvectorize,
)
from spindiode.models import ModelSpec, Variant, build_hamiltonian, critical_j34
from spindiode.observables import evaluate_diode
from spindiode.spinops import coupling_zz, exchange_xx, product_state
from spindiode.steadystate import (
    _eigs_near_zero,
    convergence_fidelity,
    spectrum,
    steady_state_solve,
    steady_states,
)


def boundary_driven(delta, hot=1, cold=6, Delta=5.0):
    spec = ModelSpec(variant=Variant.DIODE, Delta=Delta, delta=delta, J34=critical_j34(Delta))
    H = build_hamiltonian(spec)
    return assemble_liouvillian(
        H,
        [
            DissipatorSpec(site=hot, gamma=1.0, lam=0.5),
            DissipatorSpec(site=cold, gamma=1.0, lam=0.0),
        ],
    )


def small_chain(n=4):
    """Boundary-driven XX chain, small enough for dense linear algebra."""
    H = exchange_xx(n, 1, 2)
    for b in range(2, n):
        H = H + exchange_xx(n, b, b + 1)
    H = H + 0.3 * coupling_zz(n, 1, 2)
    return assemble_liouvillian(
        H,
        [
            DissipatorSpec(site=1, gamma=1.0, lam=0.5),
            DissipatorSpec(site=n, gamma=0.7, lam=0.0),
        ],
    )


def test_fast_solver_residual_and_properties():
    L = boundary_driven(0.1)
    res = steady_state_solve(L)
    rho = res.rho_ss.matrix
    assert res.residual < 1e-10
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-10
    # and it really is a fixed point
    assert np.linalg.norm(L.matrix @ rho.ravel(order="F")) < 1e-10


def dense_null_state(L):
    """Trace-normalized null vector of the dense L, no library solver involved."""
    null = la.null_space(L.dense())
    assert null.shape[1] == 1
    rho = null[:, 0].reshape(L.hilbert_dim, L.hilbert_dim, order="F")
    return rho / np.trace(rho)


def test_solver_routes_agree_small():
    """Both solvers find the dense null state on a dense-checkable chain."""
    L = small_chain()
    fast = steady_state_solve(L).rho_ss.matrix
    arn = steady_states(L, method="arnoldi").rho_ss.matrix
    dense = dense_null_state(L)
    assert np.abs(fast - arn).max() < 1e-8
    assert np.abs(fast - dense).max() < 1e-8


def test_steady_states_on_one_and_two_spins():
    # dims 4 and 16: the Arnoldi route runs at every size
    L = assemble_liouvillian(None, [DissipatorSpec(site=1, gamma=1.0, lam=0.0)])
    res = steady_states(L)
    assert res.method == "arnoldi" and res.degeneracy == 1
    down = product_state("d").density().matrix
    assert np.abs(res.rho_ss.matrix - down).max() < 1e-12
    L = small_chain(2)
    res = steady_states(L)
    assert res.degeneracy == 1
    assert np.abs(res.rho_ss.matrix - dense_null_state(L)).max() < 1e-10


def test_steady_states_when_the_last_row_of_L_is_empty():
    # pure dephasing: both populations are steady, so L's last row (rho_11) is empty
    L = assemble_liouvillian(None, [DissipatorSpec(site=1, gamma=1.0, kind=DissipatorKind.DEPHASE_T2)])
    assert L.matrix.indptr[-2] == L.matrix.indptr[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the two null eigenvalues are all ARPACK computes
        res = steady_states(L)
    assert res.degeneracy == 2
    assert np.abs(res.rho_ss.matrix - 0.5 * np.eye(2)).max() < 1e-12


def dephased(n, sites):
    """No Hamiltonian, sigma_z dephasing on ``sites``; a zero-rate ladder sizes the register."""
    channels = [DissipatorSpec(site=s, gamma=1.0, kind=DissipatorKind.DEPHASE_T2) for s in sites]
    return assemble_liouvillian(None, channels + [DissipatorSpec(site=n, gamma=0.0, lam=0.0)])


@pytest.mark.parametrize("n, sites", [(3, (1, 2)), (3, (1, 2, 3)), (2, (1, 2))])
def test_degeneracy_is_counted_past_the_first_eigenvalues(n, sites):
    # dense nullities 16, 8 and 4: each fills the first 4 eigenvalues, so the count must grow
    L = dephased(n, sites)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = steady_states(L)
    assert res.degeneracy == la.null_space(L.dense()).shape[1]
    assert not [w for w in caught if "undercounted" in str(w.message)]


def recording_lus(monkeypatch):
    """Record each `spla.splu` shape and each ordering pass ("order", an `spla.spilu` call)."""
    lus, splu, spilu = [], steadystate.spla.splu, steadystate.spla.spilu
    monkeypatch.setattr(steadystate.spla, "splu", lambda A, **kwargs: lus.append(A.shape) or splu(A, **kwargs))
    monkeypatch.setattr(steadystate.spla, "spilu", lambda A, **kwargs: lus.append("order") or spilu(A, **kwargs))
    monkeypatch.setattr(steadystate, "_ORDERINGS", {})
    return lus


def test_steady_states_grows_its_eigenvalue_count_only_when_needed(monkeypatch):
    calls, eigs = [], steadystate.spla.eigs

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigs(*args, **kwargs)

    monkeypatch.setattr(steadystate.spla, "eigs", counting)
    lus = recording_lus(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # 13 blocks in 11 groups (the two 1-index blocks join a 12-index one); only the 924 block
        # holds null vectors, and the inverse-iteration test spares Arnoldi on the other ten
        assert steady_states(boundary_driven(0.0, hot=6, cold=1)).degeneracy == 2
        assert calls == [4]
        factored = [shape for shape in lus if shape != "order"]
        assert len(factored) == lus.count("order") == 11  # every group ordered once, factored once
        lus.clear()
        steady_states(boundary_driven(0.0, hot=6, cold=1))
        assert lus == factored  # a repeat call reuses the orderings
        calls.clear()
        lus.clear()
        # no Hamiltonian: L is diagonal, so its 64 one-index blocks make one group
        assert steady_states(dephased(3, (1, 2))).degeneracy == 16
    assert calls == [4, 8, 16, 32]  # doubled while every computed eigenvalue was null
    assert lus == ["order", (64, 64)]  # after the ordering pass, one factorization of L - sigma*I serves every k


@pytest.mark.parametrize("hot, cold", [(1, 6), (6, 1)], ids=["forward", "reverse"])
def test_steady_states_factors_no_block_above_924_at_six_spins(monkeypatch, hot, cold):
    """The whole 4096-dim L is never factored: the largest LU is the population block's."""
    lus = recording_lus(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        steady_states(boundary_driven(0.0, hot=hot, cold=cold))
    assert max(shape[0] for shape in lus if shape != "order") == 924


def whole_space_steady_states(L):
    """Oracle: one shift-inverted Arnoldi solve on the whole complex L, then the same states.

    This is the route steady_states took before it split L into blocks.
    """
    scale = spla.norm(L.matrix, np.inf)
    null_tol = steadystate._NULL_RTOL * max(scale, 1.0)
    (_, vr), null_idx = _eigs_near_zero(L.matrix, scale, null_tol)
    ms = [unvectorize(vr[:, i] / np.linalg.norm(vr[:, i])) for i in null_idx]
    return steadystate._fixed_space_states(L, ms, null_tol)


def cold_bath_chain(delta=0.1):
    """The fig4a chain: Delta = 100, J34 = -101, one cold bath on site 1 and no hot one."""
    H = build_hamiltonian(ModelSpec(variant=Variant.DIODE, Delta=100.0, delta=delta, J34=-101.0))
    return assemble_liouvillian(H, [DissipatorSpec(site=1, gamma=1.0, lam=0.0)])


BLOCK_CASES = {
    "Delta5-forward": (lambda: boundary_driven(0.0, hot=1, cold=6), 2),
    "Delta5-reverse": (lambda: boundary_driven(0.0, hot=6, cold=1), 2),
    "Delta20-forward": (lambda: boundary_driven(0.0, hot=1, cold=6, Delta=20.0), 2),
    "Delta20-reverse": (lambda: boundary_driven(0.0, hot=6, cold=1, Delta=20.0), 2),
    "Delta100-reverse": (lambda: boundary_driven(0.0, hot=6, cold=1, Delta=100.0), 3),
    "cold-bath-chain": (cold_bath_chain, 9),
    "dephased": (lambda: dephased(3, (1, 2)), 16),
    "one-spin-decay": (lambda: assemble_liouvillian(None, [DissipatorSpec(site=1, gamma=1.0, lam=0.0)]), 1),
    "one-spin-dephasing": (lambda: dephased(1, (1,)), 2),
    "two-spin-chain": (lambda: small_chain(2), 1),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_null_space_matches_the_whole_space_oracle(monkeypatch, case):
    """Same degeneracy, rho_ss and rho_all state by state as Arnoldi on the whole L, to 1e-10.

    On the cold-bath chain the blocks' LUs and the whole LU agree on the states only to 3.4e-10
    (rho_ss to 6.4e-11): a slow mode at 1.1e-8 of ||L||_inf beside the nine null ones leaves the
    shift-inverted solves (shift 1e-6 of ||L||_inf) that much room, so its states get 1e-9.  There
    two null vectors lie in coherence blocks without populations, which the inverse-iteration
    test must not skip.
    """
    build, degeneracy = BLOCK_CASES[case]
    L = build()
    found, block_null_vectors = [], steadystate._block_null_vectors

    def recording(M, *args):  # (block size, null vectors found) per group
        vr, short = block_null_vectors(M, *args)
        found.append((M.shape[0], vr.shape[1]))
        return vr, short

    monkeypatch.setattr(steadystate, "_block_null_vectors", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res, ref = steady_states(L), whole_space_steady_states(L)
    assert res.degeneracy == ref.degeneracy == degeneracy == sum(n for _, n in found)
    assert len(res.rho_all) == len(ref.rho_all)
    assert np.abs(res.rho_ss.matrix - ref.rho_ss.matrix).max() < 1e-10
    tol = 1e-9 if case == "cold-bath-chain" else 1e-10
    for a, b in zip(res.rho_all, ref.rho_all):
        assert np.abs(a.matrix - b.matrix).max() < tol
    if case == "cold-bath-chain":
        assert len(res.rho_all) == 16
        assert [f for f in found if f[1]] == [(495, 1), (495, 1), (924, 7)]


def diode_point(delta=0.02):
    return evaluate_diode(ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=delta, J34=critical_j34(5.0)))


def test_ordering_table_leaves_the_bits_alone(monkeypatch):
    """A point solved cold, warm and after a point of another pattern gives the same bits.

    The reverse block shares the pattern of A + A^T with the forward one but not its MMD ordering
    (SuperLU's tie-breaks read A's own pattern), so it also gives the same bits solved first.
    """
    monkeypatch.setattr(steadystate, "_ORDERINGS", {})
    reverse_first = steady_state_solve(boundary_driven(0.02, hot=6, cold=1)).rho_ss.matrix
    monkeypatch.setattr(steadystate, "_ORDERINGS", {})
    cold = diode_point()
    assert len(steadystate._ORDERINGS) == 2  # one pattern per bias
    warm = diode_point()
    steady_state_solve(small_chain())
    assert len(steadystate._ORDERINGS) == 3
    after = diode_point()
    assert np.array_equal(cold.rho_r.matrix, reverse_first)
    for m in (warm, after):
        assert (m.J_f, m.J_r, m.R) == (cold.J_f, cold.J_r, cold.R)
        assert np.array_equal(m.rho_f.matrix, cold.rho_f.matrix)
        assert np.array_equal(m.rho_r.matrix, cold.rho_r.matrix)


def test_answers_do_not_depend_on_the_ordering(monkeypatch):
    """The refined solve through another valid ordering of the same pattern agrees to 1e-10."""
    monkeypatch.setattr(steadystate, "_ORDERINGS", {})
    ref = diode_point()
    for key, perm in steadystate._ORDERINGS.items():
        steadystate._ORDERINGS[key] = perm[::-1].copy()
    other = diode_point()
    assert other.J_r != ref.J_r  # another ordering, other rounding
    for name in ("J_f", "J_r", "R"):
        assert getattr(other, name) == pytest.approx(getattr(ref, name), rel=1e-10, abs=0.0)


def test_a_new_pattern_misses_and_still_solves(monkeypatch):
    """A full table drops its oldest entry; a miss solves, and delta = 0 is still refused."""
    table = {bytes([k]): None for k in range(steadystate._MAX_ORDERINGS)}
    monkeypatch.setattr(steadystate, "_ORDERINGS", table)
    assert steady_state_solve(boundary_driven(0.02, hot=6, cold=1)).residual < 1e-10
    assert len(table) == steadystate._MAX_ORDERINGS and bytes([0]) not in table
    with pytest.raises(RuntimeError, match="degenerate"):
        steady_state_solve(boundary_driven(0.0, hot=6, cold=1))
    assert steady_state_solve(small_chain()).residual < 1e-10
    assert len(table) == steadystate._MAX_ORDERINGS and bytes([1]) not in table


def test_block_table_drops_its_oldest_entry_and_keeps_no_generator(monkeypatch):
    """The population-block table is bounded like the orderings' one, and no stored array views L."""
    table = {bytes([k]): None for k in range(steadystate._MAX_ORDERINGS)}
    monkeypatch.setattr(steadystate, "_BLOCKS", table)
    L = boundary_driven(0.02, hot=6, cold=1)
    assert steady_state_solve(L).residual < 1e-10
    assert len(table) == steadystate._MAX_ORDERINGS and bytes([0]) not in table
    stored = [a for a in table[list(table)[-1]] if isinstance(a, np.ndarray)]
    assert len(stored) == 9
    for a in stored:
        assert not any(np.shares_memory(a, b) for b in (L.matrix.data, L.matrix.indices, L.matrix.indptr))
    assert steady_state_solve(small_chain()).residual < 1e-10
    assert len(table) == steadystate._MAX_ORDERINGS and bytes([1]) not in table


def test_a_hit_still_refuses_what_a_cold_solve_refuses(monkeypatch):
    """The maps read L's pattern only, so a hit still checks Hermiticity and still refuses delta = 0."""
    monkeypatch.setattr(steadystate, "_BLOCKS", {})
    L = boundary_driven(0.02, hot=6, cold=1)
    steady_state_solve(L)
    L.matrix.data *= np.exp(0.3j)  # the same pattern: a hit
    with pytest.raises(RuntimeError, match="population block: L does not preserve Hermiticity"):
        steady_state_solve(L)
    degenerate = boundary_driven(0.0, hot=6, cold=1)
    with pytest.raises(RuntimeError) as warm:
        steady_state_solve(degenerate)  # delta = 0.02's entry: the same pattern digest
    assert len(steadystate._BLOCKS) == 1
    monkeypatch.setattr(steadystate, "_BLOCKS", {})
    with pytest.raises(RuntimeError) as cold:
        steady_state_solve(degenerate)
    assert "degenerate" in str(cold.value) and str(warm.value) == str(cold.value)


def test_arbitration_margins_around_the_threshold():
    """The slow heat mode stays above the 1e-15 arbitration threshold, a second null vector far below."""

    def second_eigenvalue(L):
        R, _ = L.restrict(reachable(L, np.arange(0, L.dim, L.hilbert_dim + 1)))
        scale = spla.norm(L.matrix, np.inf)
        w, _ = _eigs_near_zero(R, scale, steadystate._BLOCK_NULL_RTOL * scale, return_eigenvectors=False)
        return np.sort(np.abs(w))[1] / scale

    H = build_hamiltonian(ModelSpec(variant=Variant.HEAT_HQ, delta=0.01, h=10.0, J34=11.3))
    heat, _ = assemble_global_liouvillian(H, [ThermalBathSpec(1, 0.1, 1.0), ThermalBathSpec(6, 10.1, 1.0)])
    assert second_eigenvalue(heat) >= 5e-15  # measured 9.5e-15
    assert second_eigenvalue(boundary_driven(0.0, hot=6, cold=1)) <= 1e-16  # measured 3.2e-18


@pytest.mark.parametrize("Delta", [5.0, 20.0])
@pytest.mark.parametrize("hot, cold", [(1, 6), (6, 1)], ids=["forward", "reverse"])
def test_null_bound_of_steady_states_has_margin(Delta, hot, cold):
    """steady_states' null bound, _NULL_RTOL of max(||L||_inf, 1), sits inside the measured gap.

    The Diode at delta = 0 with J34 on its critical line has two steady sectors.  On the full
    complex L, in units of max(||L||_inf, 1), its null pair measured at most 9.6e-16 and the next
    mode at least 1.3e-6 (Delta = 20, reverse bias), around a bound of 1e-9: the bound must lie
    four decades above the pair and two below the next mode, so moving it to 1e-15 or to 5e-7
    fails.  The known exception is Delta = 100 under reverse bias, not pinned here: its third
    mode at 5.7e-10 lies within 2x of the bound and counts as null.
    """
    L = boundary_driven(0.0, hot=hot, cold=cold, Delta=Delta)
    scale = spla.norm(L.matrix, np.inf)
    unit = max(scale, 1.0)
    (w, _), null_idx = _eigs_near_zero(L.matrix, scale, steadystate._NULL_RTOL * unit)
    magnitudes = np.sort(np.abs(w)) / unit
    assert len(null_idx) == 2 and steady_states(L).degeneracy == 2
    assert magnitudes[1] <= steadystate._NULL_RTOL / 1e4
    assert magnitudes[2] >= 100 * steadystate._NULL_RTOL


def test_steady_states_accepts_only_arnoldi():
    with pytest.raises(ValueError, match="unknown method"):
        steady_states(small_chain(2), method="dense")


def test_fast_matches_arnoldi_full_size():
    L = boundary_driven(0.1)
    fast = steady_state_solve(L).rho_ss.matrix
    arn = steady_states(L, method="arnoldi").rho_ss.matrix
    assert np.abs(fast - arn).max() < 1e-8


def test_unique_steady_state_at_nonzero_asymmetry():
    L = boundary_driven(0.1)
    res = steady_states(L, method="arnoldi")
    assert res.degeneracy == 1


def test_degenerate_manifold_at_zero_asymmetry():
    L = boundary_driven(0.0, hot=6, cold=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = steady_states(L, method="arnoldi")
    assert res.degeneracy >= 2
    for rho in res.rho_all:
        m = rho.matrix
        assert abs(np.trace(m) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(m).min() > -1e-8


def test_fast_solver_refuses_degenerate_null_space():
    # matched bath rates leave a two-dimensional null space under this
    # bias direction, which the trace-constrained solve must not paper over
    L = boundary_driven(0.0, hot=6, cold=1)
    with pytest.raises(RuntimeError, match="degenerate"):
        steady_state_solve(L)


def test_fast_solver_refuses_a_nan_residual():
    """A NaN put into L outside the population block leaves the solve clean; the residual over all of L is NaN.

    Liouvillian refuses a NaN entry, so it goes into the stored values after construction.
    """
    L = small_chain()
    outside = np.setdiff1d(np.arange(L.dim), reachable(L, np.arange(0, L.dim, L.hilbert_dim + 1)))
    m = L.matrix
    entry = next(k for k in range(m.nnz) if m.indices[k] in outside)
    m.data[entry] = np.nan
    with pytest.raises(RuntimeError, match="non-finite residual nan"):
        steady_state_solve(L)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_liouvillian_refuses_non_finite_entries(bad):
    m = small_chain().matrix.copy()
    m.data[0] = bad
    with pytest.raises(ValueError, match="Liouvillian entries must be finite"):
        Liouvillian(m)


def test_failed_factorization_is_reported_as_a_degenerate_steady_state():
    """Without baths L is coherent only: SuperLU fails on the 924 block, and the error names it."""
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.01, J34=critical_j34(5.0))
    with pytest.raises(RuntimeError, match=r"924 x 924 block\) is singular.*use steady_states\(\)"):
        evaluate_diode(spec, gamma=0.0)


@pytest.mark.parametrize("mode", ["spin", "fermion"])
@pytest.mark.parametrize("hot, cold", [(1, 6), (6, 1)], ids=["forward", "reverse"])
def test_fast_solver_refuses_zero_asymmetry_in_both_biases(mode, hot, cold):
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.0, J34=critical_j34(5.0))
    if mode == "spin":
        H, kind = build_hamiltonian(spec), DissipatorKind.SPIN_LADDER
    else:
        H, kind = build_jw_hamiltonian(spec), DissipatorKind.FERMION_LADDER
    L = assemble_liouvillian(
        H,
        [
            DissipatorSpec(site=hot, gamma=1.0, lam=0.5, kind=kind),
            DissipatorSpec(site=cold, gamma=1.0, lam=0.0, kind=kind),
        ],
    )
    with pytest.raises(RuntimeError, match="degenerate"):
        steady_state_solve(L)


def test_arnoldi_null_space_is_reproducible():
    L = boundary_driven(0.0, hot=6, cold=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first, second = (steady_states(L, method="arnoldi") for _ in range(2))
    assert len(first.rho_all) == len(second.rho_all)
    for a, b in zip(first.rho_all, second.rho_all):
        assert np.array_equal(a.matrix, b.matrix)


def test_spectrum_matches_dense_eigvals():
    L = small_chain()
    blocks = spectrum(L)
    dense = la.eigvals(L.dense())
    # match the two lists as multisets: the optimal one-to-one pairing
    rows, cols = linear_sum_assignment(np.abs(blocks[:, None] - dense[None, :]))
    assert blocks.shape == dense.shape
    assert np.abs(blocks[rows] - dense[cols]).max() < 1e-10


def test_spectrum_structure():
    L = small_chain()
    nu = spectrum(L)
    assert nu.shape == (L.dim,)
    # sorted by real part, all decaying, exactly one on the imaginary axis
    assert np.all(np.diff(nu.real) <= 1e-12)
    assert nu.real.max() < 1e-10
    null_count = int(np.sum(np.abs(nu) < 1e-9 * np.abs(nu).max()))
    assert null_count == 1
    # complex rates pair up under conjugation (rho -> rho^dag symmetry)
    pos = nu[nu.imag > 1e-8]
    neg = nu[nu.imag < -1e-8]
    assert len(pos) == len(neg)
    dist = np.abs(pos[:, None] - neg[None, :].conj())
    assert dist.min(axis=1).max() < 1e-8


def test_spectrum_refuses_non_hermiticity_preserving_generator():
    # a one-spin generator whose image of rho^dag is not L(rho)^dag
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1j  # d rho_00 / dt = i rho_10, with no matching i rho_01 term
    m[1, 1] = m[2, 2] = -1.0
    with pytest.raises(ValueError, match="Hermiticity"):
        spectrum(Liouvillian(sp.csr_matrix(m)))


def test_convergence_fidelity_increases():
    L = boundary_driven(0.1)
    rho_ss = steady_state_solve(L).rho_ss
    F = convergence_fidelity(L, product_state("dduudd"), rho_ss, [0.0, 5.0, 25.0])
    assert F[0] < F[1] < F[2]
    assert F[2] > 0.5


def test_convergence_fidelity_fixed_point():
    L = boundary_driven(0.1)
    rho_ss = steady_state_solve(L).rho_ss
    F = convergence_fidelity(L, rho_ss, rho_ss, [0.0, 10.0])
    assert_allclose(F, 1.0, atol=1e-8)

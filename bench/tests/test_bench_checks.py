"""The benchmark's checks pass on the program's answers and reject wrong ones."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import spindiode as sd  # noqa: E402


@pytest.fixture(scope="module")
def diode_point():
    spec = sd.ModelSpec(variant=sd.Variant.DIODE, Delta=5.0, delta=0.05, J34=sd.critical_j34(5.0))
    m = sd.evaluate_diode(spec)
    p = {"label": "p", "variant": "Diode", "mode": "spin", "T": None}
    row = {"Delta": 5.0, "delta": 0.05, "J34": spec.J34, "J_f": m.J_f, "J_r": m.J_r, "R": m.R}
    return p, row, m.rho_f.matrix, m.rho_r.matrix


def _hermitian_traceless(d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = x + x.conj().T
    x -= np.trace(x) / d * np.eye(d)
    return x / np.abs(x).max()


def test_program_point_passes(diode_point):
    assert checks.transport_point(*diode_point) == []


def test_steady_state_perturbed_at_1e6_is_rejected(diode_point):
    p, row, rho_f, rho_r = diode_point
    bad = checks.transport_point(p, row, rho_f + 1e-6 * _hermitian_traceless(64), rho_r)
    assert any("residual" in b for b in bad)


def test_bias_swapped_current_is_rejected(diode_point):
    p, row, rho_f, rho_r = diode_point
    # the forward state handed in for the reverse bias: both currents share a sign
    assert any("opposite signs" in b for b in checks.transport_point(p, row, rho_f, rho_f))
    swapped = dict(row, J_r=-row["J_r"])
    assert any("reported J_r" in b for b in checks.transport_point(p, swapped, rho_f, rho_r))


def test_trajectory_with_drifting_trace_is_rejected(diode_point):
    rho = diode_point[2]
    assert checks.trajectory([rho, rho, rho], "t") == []
    assert checks.trajectory([rho * (1.0 + 1e-6 * k) for k in range(3)], "t")


def test_heat_coherence_between_distinct_levels_is_rejected():
    m = sd.evaluate_heat_diode(sd.ModelSpec(variant=sd.Variant.LINEAR_REFERENCE, h=6.0))
    p = {"label": "lin", "variant": "LinearReference"}
    row = {"h": 6.0, "K_f": m.K_f, "K_r": m.K_r, "R_Q": m.R_Q,
           "balance_f": m.balance[0], "balance_r": m.balance[1]}
    assert checks.heat_point(p, row, m.rho_f.matrix, m.rho_r.matrix) == []
    eps, U = np.linalg.eigh(checks.hamiltonian("LinearReference", h=6.0))
    ket = U[:, 0][:, None] * U[:, -1].conj()[None, :]  # |e_0><e_last|, distinct energies
    bad_rho = m.rho_f.matrix + 1e-6 * (ket + ket.conj().T)
    assert any("coherence" in b for b in checks.heat_point(p, row, bad_rho, m.rho_r.matrix))

"""Named presets that regenerate the data behind each figure.

Every preset returns a dict of named SweepTables (one per curve family
or panel part).  Axis ranges and grid resolutions are artifact choices;
the physics parameters (delta, Delta, J34 parametrizations, bath
settings) are fixed by the corresponding study.

The sweep presets are documents in ``spindiode/presets.json``: a doc
string plus a named list of tables, each table a config in the
``spindiode sweep`` schema that goes through ``SweepConfig.from_json``
and ``run_sweep`` like any ``spindiode sweep --config`` file.  ``points``
replaces the sample count of every linspace/logspace axis and leaves
explicit value lists alone.  fig3d is the main-text copy of fig7b.  Only
fig4a (dynamics), fig4bc (magnetization profiles, fixed at six sites, so
it ignores ``points``) and fig5 (spectra and convergence) are code.

Runtime notes assume a single core and sit in each preset's doc string.
The six-spin sweeps clear a few milliseconds to ~0.1 s per grid point;
seven-spin models (the corrected and extended chains) cost roughly 1-2 s
per point, so their default grids are deliberately coarse.
"""

from __future__ import annotations

import json
from functools import partial
from importlib.resources import files

import numpy as np

from . import __version__
from .liouville import DissipatorSpec, assemble_liouvillian, propagate
from .models import ModelSpec, Variant, build_hamiltonian, critical_j34
from .observables import bias_dissipators, evaluate_diode, fidelity_pure, magnetization_profile
from .spinops import bell_state, kron_states, product_state, standard_initial_states
from .steadystate import convergence_fidelity, spectrum, steady_state_solve
from .sweep import SweepConfig, SweepTable, positive_int, run_sweep

__all__ = ["FIGURE_PRESETS", "run_preset"]

_DOCUMENTS = json.loads(files(__package__).joinpath("presets.json").read_text())


def _table(header, rows, name) -> SweepTable:
    return SweepTable(
        header=header, rows=rows, provenance={"preset": name, "version": __version__}
    )


def _with_points(table: dict, points: int | None) -> dict:
    """The sweep document with every linspace/logspace sample count set to ``points``."""
    if points is None:
        return table
    axes = [
        [name, {kind: [start, stop, points] for kind, (start, stop, _) in values.items()}]
        if isinstance(values, dict)
        else [name, values]
        for name, values in table["axes"]
    ]
    return {**table, "axes": axes}


def _run_document(name: str, points: int | None = None, workers: int = 1):
    """Run every table of one preset document through the sweep parser."""
    return {
        part: run_sweep(SweepConfig.from_json(json.dumps({**_with_points(table, points), "workers": workers})))
        for part, table in _DOCUMENTS[name]["tables"].items()
    }


def fig4a(points: int | None = None, workers: int = 1):
    """Closing dynamics from |ddunudd... i.e. spins 3,4 excited: fidelity
    with the initial state, the two-pair Bell state and the gate Bell
    state vs time.  Cold bath on site 1 only (the mechanism is bath
    driven); delta = 0.1, Delta = 100, J34 = -(Delta+1)J, gamma = J.
    About 0.1 s: one dense expm(0.5 R) in the 262-dim block of the initial state."""
    spec = ModelSpec(variant=Variant.DIODE, delta=0.1, Delta=100.0, J34=-101.0)
    L = assemble_liouvillian(build_hamiltonian(spec), [DissipatorSpec(site=1, gamma=1.0, lam=0.0)])
    psi0 = product_state("dduudd")
    down = product_state("dd")
    bell = bell_state("psi-")
    targets = {
        "F_initial": psi0,
        "F_bell_pairs_12_34": kron_states(bell, bell, down),
        "F_bell_gate": kron_states(down, bell, down),
    }
    times = np.linspace(0.0, 200.0, 401 if points is None else points)
    traj = propagate(L, psi0, times)
    rows = [[t] + [fidelity_pure(rho, v) for v in targets.values()] for t, rho in zip(times, traj)]
    return {"dynamics": _table(["t"] + list(targets), rows, "fig4a")}


def fig4bc(points: int | None = None, workers: int = 1):
    """Steady-state magnetization profiles in both biases; delta = 0.01,
    Delta = 5, J34 on the critical line."""
    spec = ModelSpec(variant=Variant.DIODE, delta=0.01, Delta=5.0, J34=critical_j34(5.0))
    m = evaluate_diode(spec, gamma=1.0)
    prof_f = magnetization_profile(m.rho_f)
    prof_r = magnetization_profile(m.rho_r)
    rows = [[site + 1, prof_f[site], prof_r[site]] for site in range(6)]
    return {"profiles": _table(["site", "sz_forward", "sz_reverse"], rows, "fig4bc")}


def fig5(points: int | None = None, workers: int = 1):
    """Liouvillian spectra in both biases plus convergence of the ten
    reference initial states; delta = 0.1, Delta = 5, J34 = J34c(5).
    The two block spectra dominate (steadystate.spectrum, ~2.5 s each)."""
    spec = ModelSpec(variant=Variant.DIODE, delta=0.1, Delta=5.0, J34=critical_j34(5.0))
    H = build_hamiltonian(spec)
    out = {}
    liouvillians = {}
    steadies = {}
    for label, dissipators in zip(("forward", "reverse"), bias_dissipators(spec)):
        L = liouvillians[label] = assemble_liouvillian(H, dissipators)
        steadies[label] = steady_state_solve(L).rho_ss
        rows = [[float(v.real), float(v.imag)] for v in spectrum(L)]
        out[f"spectrum_{label}"] = _table(["re_nu", "im_nu"], rows, "fig5")

    labels = [f"psi{i}" for i in range(1, 9)] + ["rho_ss_f", "rho_ss_r"]
    initials = list(standard_initial_states(6)) + [steadies["forward"], steadies["reverse"]]
    times = np.linspace(0.0, 50.0, 201 if points is None else points)
    for label in ("forward", "reverse"):
        cols = [
            convergence_fidelity(liouvillians[label], init, steadies[label], times)
            for init in initials
        ]
        rows = [[times[k]] + [float(c[k]) for c in cols] for k in range(len(times))]
        out[f"convergence_{label}"] = _table(["t"] + labels, rows, "fig5")
    return out


FIGURE_PRESETS = {name: partial(_run_document, name) for name in _DOCUMENTS}
FIGURE_PRESETS.update(fig3d=FIGURE_PRESETS["fig7b"], fig4a=fig4a, fig4bc=fig4bc, fig5=fig5)


def run_preset(name: str, points: int | None = None, workers: int = 1):
    """Run one figure preset by name; returns {part_name: SweepTable}."""
    if name not in FIGURE_PRESETS:
        known = ", ".join(sorted(FIGURE_PRESETS))
        raise ValueError(f"unknown preset {name!r}; available: {known}")
    if points is not None:
        positive_int("points", points)
    positive_int("workers", workers)
    return FIGURE_PRESETS[name](points=points, workers=workers)

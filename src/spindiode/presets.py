"""Named presets that regenerate the data behind each figure.

Every preset returns a dict of named SweepTables (one per curve family
or panel part).  Axis ranges and grid resolutions are artifact choices,
documented per preset and overridable through ``points``; the physics
parameters (delta, Delta, J34 parametrizations, bath settings) are
fixed by the corresponding study.

Runtime notes assume a single core.  The six-spin sweeps clear a few
milliseconds to ~0.1 s per grid point; seven-spin models (the corrected
and extended chains) cost roughly 1-2 s per point, so their default
grids are deliberately coarse.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .liouville import DissipatorSpec, assemble_liouvillian, decoherence_channels, propagate
from .models import ModelSpec, Variant, critical_j34
from .observables import fidelity_pure, magnetization_profile
from .spinops import bell_state, kron_states, product_state, standard_initial_states
from .steadystate import spectrum, steady_state_solve
from .sweep import BathConfig, SweepConfig, SweepTable, run_sweep

__all__ = ["FIGURE_PRESETS", "run_preset"]

_DELTAS = (0.01, 0.03, 0.1)


def _lin(lo, hi, n):
    return tuple(float(x) for x in np.linspace(lo, hi, n))


def _table(header, rows, name) -> SweepTable:
    return SweepTable(
        header=header, rows=rows, provenance={"preset": name, "version": __version__}
    )


def fig2a(points: int | None = None, workers: int = 1):
    """Rectification landscape over Delta x J34 at delta = 0.01 (48 x 48)."""
    n = points or 48
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE, delta=0.01),
        axes=(("Delta", _lin(-10, 10, n)), ("J34", _lin(-12, 12, n))),
        outputs=("R", "C", "J_f", "J_r"),
        workers=workers,
    )
    return {"landscape": run_sweep(cfg)}


def fig2b(points: int | None = None, workers: int = 1):
    """R along the critical line vs Delta for three asymmetries, plus the
    five-spin reference chain (one curve; delta and J34 do not enter it)."""
    n = points or 64
    diode = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE),
        axes=(("delta", _DELTAS), ("Delta", _lin(1, 10, n))),
        coupled=(("J34", "critical_j34(Delta)"),),
        outputs=("R", "C"),
        workers=workers,
    )
    linear = SweepConfig(
        model=ModelSpec(variant=Variant.LINEAR_REFERENCE),
        axes=(("Delta", _lin(1, 10, n)),),
        outputs=("R", "C"),
        workers=workers,
    )
    return {"diode": run_sweep(diode), "linear": run_sweep(linear)}


def fig2c(points: int | None = None, workers: int = 1):
    """Forward and reverse currents along the critical line, delta = 0.01."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE, delta=0.01),
        axes=(("Delta", _lin(1, 10, n)),),
        coupled=(("J34", "critical_j34(Delta)"),),
        outputs=("J_f", "J_r"),
        workers=workers,
    )
    return {"currents": run_sweep(cfg)}


def fig3a(points: int | None = None, workers: int = 1):
    """Contrast, gate-pair Bell fidelity and concurrence along the line."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE, delta=0.01),
        axes=(("Delta", _lin(1, 10, n)),),
        coupled=(("J34", "critical_j34(Delta)"),),
        outputs=("C", "F_psi_minus_34_r", "concurrence_34_r", "R"),
        workers=workers,
    )
    return {"mechanism": run_sweep(cfg)}


def fig3b(points: int | None = None, workers: int = 1):
    """Sensitivity to gate-site fields h3, h4 and bond mismatch delta',
    one perturbation at a time over [0, 0.2]; delta = 0.03, Delta = 5."""
    n = points or 64
    base = ModelSpec(variant=Variant.DIODE_PERTURBED, delta=0.03, Delta=5.0, J34=critical_j34(5.0))
    out = {}
    for param in ("h3", "h4", "delta_prime"):
        cfg = SweepConfig(
            model=base,
            axes=((param, _lin(0, 0.2, n)),),
            outputs=("R", "C"),
            workers=workers,
        )
        out[param] = run_sweep(cfg)
    return out


def fig3c(points: int | None = None, workers: int = 1):
    """R vs decoherence lifetime TJ (logspace), without and with the
    shadow-qubit correction, plus the linear reference; delta = 0.1,
    Delta = 5.  The corrected model is seven spins: ~2 s per point."""
    n = points or 9
    t_axis = ("T", tuple(float(x) for x in np.logspace(2, 6, n)))
    common = dict(
        axes=(t_axis,),
        outputs=("R", "C"),
        workers=workers,
    )
    j34 = critical_j34(5.0)
    uncorrected = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE, delta=0.1, Delta=5.0, J34=j34), **common
    )
    corrected = SweepConfig(
        model=ModelSpec(variant=Variant.SHADOW_CORRECTED, delta=0.1, Delta=5.0, J34=j34),
        **common,
    )
    linear = SweepConfig(model=ModelSpec(variant=Variant.LINEAR_REFERENCE, Delta=5.0), **common)
    return {
        "uncorrected": run_sweep(uncorrected),
        "corrected": run_sweep(corrected),
        "linear": run_sweep(linear),
    }


def fig3d(points: int | None = None, workers: int = 1):
    """Main-text copy of the heat-diode curves; see fig7b."""
    return fig7b(points, workers)


def fig4a(points: int | None = None, workers: int = 1):
    """Closing dynamics from |ddunudd... i.e. spins 3,4 excited: fidelity
    with the initial state, the two-pair Bell state and the gate Bell
    state vs time.  Cold bath on site 1 only (the mechanism is bath
    driven); delta = 0.1, Delta = 100, J34 = -(Delta+1)J, gamma = J.
    About 15 s: one real Krylov run in the 262-dim block of the initial state."""
    n = points or 401
    spec = ModelSpec(variant=Variant.DIODE, delta=0.1, Delta=100.0, J34=-101.0)
    from .models import build_hamiltonian

    H = build_hamiltonian(spec)
    L = assemble_liouvillian(H, [DissipatorSpec(site=1, gamma=1.0, lam=0.0)])
    psi0 = product_state("dduudd")
    down = product_state("dd")
    bell = bell_state("psi-")
    targets = {
        "F_initial": psi0,
        "F_bell_pairs_12_34": kron_states(bell, bell, down),
        "F_bell_gate": kron_states(down, bell, down),
    }
    times = np.linspace(0.0, 200.0, n)
    traj = propagate(L, psi0, times)
    rows = []
    for t, rho in zip(times, traj):
        rows.append([t] + [fidelity_pure(rho, v) for v in targets.values()])
    return {"dynamics": _table(["t"] + list(targets), rows, "fig4a")}


def fig4bc(points: int | None = None, workers: int = 1):
    """Steady-state magnetization profiles in both biases; delta = 0.01,
    Delta = 5, J34 on the critical line."""
    from .observables import evaluate_diode

    spec = ModelSpec(variant=Variant.DIODE, delta=0.01, Delta=5.0, J34=critical_j34(5.0))
    m = evaluate_diode(spec, gamma=1.0)
    prof_f = magnetization_profile(m.rho_f)
    prof_r = magnetization_profile(m.rho_r)
    rows = [[site + 1, prof_f[site], prof_r[site]] for site in range(6)]
    return {"profiles": _table(["site", "sz_forward", "sz_reverse"], rows, "fig4bc")}


def fig4d(points: int | None = None, workers: int = 1):
    """R vs a local field on one outer site at a time (sites 1, 2, 5, 6),
    delta = 0.03, Delta = 5, J34 on the critical line."""
    n = points or 64
    base = ModelSpec(variant=Variant.DIODE, delta=0.03, Delta=5.0, J34=critical_j34(5.0))
    out = {}
    for site in (1, 2, 5, 6):
        cfg = SweepConfig(
            model=base,
            axes=((f"local_field_{site}", _lin(0, 0.2, n)),),
            outputs=("R", "C"),
            workers=workers,
        )
        out[f"h{site}"] = run_sweep(cfg)
    return out


def fig4e(points: int | None = None, workers: int = 1):
    """R vs Delta for decoherence lifetimes TJ in {1e3, 1e4, 1e5}, without
    (solid) and with (dashed) the shadow correction; delta = 0.1.  The
    corrected grid is seven spins: 16 x 3 points at ~2 s each."""
    n = points or 16
    lifetimes = (1e3, 1e4, 1e5)
    common = dict(
        axes=(("T", lifetimes), ("Delta", _lin(1, 10, n))),
        coupled=(("J34", "critical_j34(Delta)"),),
        outputs=("R", "C"),
        workers=workers,
    )
    uncorrected = SweepConfig(model=ModelSpec(variant=Variant.DIODE, delta=0.1), **common)
    corrected = SweepConfig(model=ModelSpec(variant=Variant.SHADOW_CORRECTED, delta=0.1), **common)
    return {"uncorrected": run_sweep(uncorrected), "corrected": run_sweep(corrected)}


def fig5(points: int | None = None, workers: int = 1):
    """Liouvillian spectra in both biases plus convergence of the ten
    reference initial states; delta = 0.1, Delta = 5, J34 = J34c(5).
    The two block spectra dominate (steadystate.spectrum, ~6 s each)."""
    from .models import build_hamiltonian, chain_ends
    from .steadystate import convergence_fidelity

    n = points or 201
    spec = ModelSpec(variant=Variant.DIODE, delta=0.1, Delta=5.0, J34=critical_j34(5.0))
    H = build_hamiltonian(spec)
    first, last = chain_ends(spec)

    out = {}
    liouvillians = {}
    steadies = {}
    for label, (hot, cold) in (("forward", (first, last)), ("reverse", (last, first))):
        L = assemble_liouvillian(
            H,
            [
                DissipatorSpec(site=hot, gamma=1.0, lam=0.5),
                DissipatorSpec(site=cold, gamma=1.0, lam=0.0),
            ],
        )
        liouvillians[label] = L
        steadies[label] = steady_state_solve(L).rho_ss
        nu = spectrum(L)
        rows = [[float(v.real), float(v.imag)] for v in nu]
        out[f"spectrum_{label}"] = _table(["re_nu", "im_nu"], rows, "fig5")

    states = standard_initial_states(6)
    labels = [f"psi{i}" for i in range(1, 9)] + ["rho_ss_f", "rho_ss_r"]
    initials = list(states) + [steadies["forward"], steadies["reverse"]]
    times = np.linspace(0.0, 50.0, n)
    for label in ("forward", "reverse"):
        cols = [
            convergence_fidelity(liouvillians[label], init, steadies[label], times)
            for init in initials
        ]
        rows = [[times[k]] + [float(c[k]) for c in cols] for k in range(len(times))]
        out[f"convergence_{label}"] = _table(["t"] + labels, rows, "fig5")
    return out


def fig6a(points: int | None = None, workers: int = 1):
    """R vs J34 near the critical value for matched asymmetries
    delta = delta' (both bonds detuned together); Delta = 5."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE_PERTURBED, Delta=5.0),
        axes=(("delta", _DELTAS), ("J34", _lin(-8, -5, n))),
        coupled=(("delta_prime", "delta"),),
        outputs=("R", "C"),
        workers=workers,
    )
    return {"matched": run_sweep(cfg)}


def fig6b(points: int | None = None, workers: int = 1):
    """R vs Delta along the critical line for bath couplings
    gamma in {0.1, 1, 5}; delta = 0.01."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE, delta=0.01),
        axes=(("gamma", (0.1, 1.0, 5.0)), ("Delta", _lin(1, 10, n))),
        coupled=(("J34", "critical_j34(Delta)"),),
        outputs=("R", "C"),
        workers=workers,
    )
    return {"gamma": run_sweep(cfg)}


def fig6c(points: int | None = None, workers: int = 1):
    """R vs Delta for the fermionic image of the chain, per delta."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.DIODE),
        axes=(("delta", _DELTAS), ("Delta", _lin(1, 10, n))),
        coupled=(("J34", "critical_j34(Delta)"),),
        bath=BathConfig(mode="fermion"),
        outputs=("R", "C"),
        workers=workers,
    )
    return {"fermionic": run_sweep(cfg)}


def fig7a(points: int | None = None, workers: int = 1):
    """Heat rectification landscape over h x J34, delta = 0.01 (48 x 48,
    about 2 min: each point solves two secular master equations, ~0.05 s)."""
    n = points or 48
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.HEAT_HQ, delta=0.01),
        axes=(("h", _lin(0, 10, n)), ("J34", _lin(0, 12, n))),
        bath=BathConfig(mode="heat"),
        outputs=("R_Q", "K_f", "K_r"),
        workers=workers,
    )
    return {"landscape": run_sweep(cfg)}


def fig7b(points: int | None = None, workers: int = 1):
    """R_Q vs h along J34 = h + 1.3J per delta, plus the linear reference."""
    n = points or 64
    heat = SweepConfig(
        model=ModelSpec(variant=Variant.HEAT_HQ),
        axes=(("delta", _DELTAS), ("h", _lin(1, 10, n))),
        coupled=(("J34", "critical_j34_heat(h)"),),
        bath=BathConfig(mode="heat"),
        outputs=("R_Q", "K_f", "K_r"),
        workers=workers,
    )
    linear = SweepConfig(
        model=ModelSpec(variant=Variant.LINEAR_REFERENCE),
        axes=(("h", _lin(1, 10, n)),),
        bath=BathConfig(mode="heat"),
        outputs=("R_Q", "K_f", "K_r"),
        workers=workers,
    )
    return {"heat": run_sweep(heat), "linear": run_sweep(linear)}


def fig7c(points: int | None = None, workers: int = 1):
    """Forward and reverse heat currents along J34 = h + 1.3J, delta = 0.01."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.HEAT_HQ, delta=0.01),
        axes=(("h", _lin(1, 10, n)),),
        coupled=(("J34", "critical_j34_heat(h)"),),
        bath=BathConfig(mode="heat"),
        outputs=("K_f", "K_r", "R_Q"),
        workers=workers,
    )
    return {"currents": run_sweep(cfg)}


def fig8a(points: int | None = None, workers: int = 1):
    """R_Q vs h for several cold-bath temperatures at fixed
    Delta-T = T_H - T_C = 10J; delta = 0.01."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.HEAT_HQ, delta=0.01),
        axes=(("T_C", (0.1, 0.5, 1.0, 5.0)), ("h", _lin(1, 10, n))),
        coupled=(("J34", "critical_j34_heat(h)"), ("T_H", "T_C + 10.0")),
        bath=BathConfig(mode="heat"),
        outputs=("R_Q", "K_f", "K_r"),
        workers=workers,
    )
    return {"vary_h": run_sweep(cfg)}


def fig8b(points: int | None = None, workers: int = 1):
    """R_Q vs the temperature difference at h = 5J per cold-bath
    temperature; J34 = J34Q(5), delta = 0.01."""
    n = points or 33
    cfg = SweepConfig(
        model=ModelSpec(
            variant=Variant.HEAT_HQ, delta=0.01, h=5.0, J34=6.3
        ),
        axes=(
            ("T_C", (0.1, 0.5, 1.0, 5.0)),
            ("dT", tuple(float(x) for x in np.logspace(-1, 2, n))),
        ),
        bath=BathConfig(mode="heat"),
        outputs=("R_Q", "K_f", "K_r"),
        workers=workers,
    )
    return {"vary_dT": run_sweep(cfg)}


def fig9a(points: int | None = None, workers: int = 1):
    """The two sign/field variants along their closing lines: the local
    field form vs h (J34 = h + 1.3J) and the flipped-bond form vs
    Delta = -h (J34 = 1.3 - h, i.e. (Delta + 1.3)J); delta = 0.01."""
    n = points or 64
    field_variant = SweepConfig(
        model=ModelSpec(variant=Variant.FIELD_H1, delta=0.01),
        axes=(("h", _lin(1, 10, n)),),
        coupled=(("J34", "critical_j34_heat(h)"),),
        outputs=("R", "C"),
        workers=workers,
    )
    sign_variant = SweepConfig(
        model=ModelSpec(variant=Variant.SIGN_H2, delta=0.01),
        axes=(("h", _lin(-10, -1, n)),),
        coupled=(("J34", "1.3 - h"),),
        outputs=("R", "C"),
        workers=workers,
    )
    return {"field_variant": run_sweep(field_variant), "sign_variant": run_sweep(sign_variant)}


def fig9b(points: int | None = None, workers: int = 1):
    """Contrast, gate fidelity with the symmetric Bell state and
    concurrence for the flipped-bond variant (h = -Delta)."""
    n = points or 64
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.SIGN_H2, delta=0.01),
        axes=(("h", _lin(-10, -1, n)),),
        coupled=(("J34", "1.3 - h"),),
        outputs=("C", "F_psi_plus_34_r", "concurrence_34_r", "R"),
        workers=workers,
    )
    return {"mechanism": run_sweep(cfg)}


def fig9c(points: int | None = None, workers: int = 1):
    """R vs Delta for the two seven-spin extensions (XX bond appended or
    prepended); about 2 s per point, so the default grid is coarse."""
    n = points or 16
    out = {}
    for label, variant in (("appended", Variant.EXTENDED_MXX), ("prepended", Variant.EXTENDED_XXM)):
        cfg = SweepConfig(
            model=ModelSpec(variant=variant, delta=0.01),
            axes=(("Delta", _lin(1, 10, n)),),
            coupled=(("J34", "critical_j34(Delta)"),),
            outputs=("R", "C"),
            workers=workers,
        )
        out[label] = run_sweep(cfg)
    return out


def fig9d(points: int | None = None, workers: int = 1):
    """R landscape of the prepended-XXZ extension over Delta x J34
    (12 x 12 by default; each seven-spin point costs ~2 s, so the full
    default grid is about 5 min)."""
    n = points or 12
    cfg = SweepConfig(
        model=ModelSpec(variant=Variant.EXTENDED_XXZM, delta=0.01),
        axes=(("Delta", _lin(0, 5, n)), ("J34", _lin(-6, -1, n))),
        outputs=("R", "C"),
        workers=workers,
    )
    return {"landscape": run_sweep(cfg)}


FIGURE_PRESETS = {
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig2c": fig2c,
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig3c": fig3c,
    "fig3d": fig3d,
    "fig4a": fig4a,
    "fig4bc": fig4bc,
    "fig4d": fig4d,
    "fig4e": fig4e,
    "fig5": fig5,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig6c": fig6c,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig7c": fig7c,
    "fig8a": fig8a,
    "fig8b": fig8b,
    "fig9a": fig9a,
    "fig9b": fig9b,
    "fig9c": fig9c,
    "fig9d": fig9d,
}


def run_preset(name: str, points: int | None = None, workers: int = 1):
    """Run one figure preset by name; returns {part_name: SweepTable}."""
    if name not in FIGURE_PRESETS:
        known = ", ".join(sorted(FIGURE_PRESETS))
        raise ValueError(f"unknown preset {name!r}; available: {known}")
    return FIGURE_PRESETS[name](points=points, workers=workers)

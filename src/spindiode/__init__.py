"""Steady-state transport simulator for boundary-driven spin chains.

The package builds spin-chain Hamiltonians with a two-spin interface gate,
assembles vectorized Lindblad generators for local and global (thermal)
baths, solves for nonequilibrium steady states, and computes the transport
diagnostics used to characterise diode behavior: spin and heat currents,
rectification, contrast, magnetization profiles, fidelities and concurrence.
"""

__version__ = "0.1.0"

from .spinops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SIGMA_PLUS,
    SIGMA_MINUS,
    Operator,
    StateVector,
    site_operator,
    exchange_xx,
    coupling_zz,
    partial_trace,
    total_sz,
    swap_operator,
    product_state,
    bell_state,
    kron_states,
    standard_initial_states,
)
from .models import (
    Variant,
    ModelSpec,
    build_hamiltonian,
    critical_j34,
    critical_j34_heat,
    restrict_to_sites,
    chain_ends,
    current_bonds,
)
from .liouville import (
    DissipatorKind,
    DissipatorSpec,
    Liouvillian,
    vectorize,
    unvectorize,
    assemble_liouvillian,
    decoherence_channels,
    propagate,
)
from .steadystate import (
    SteadyStateResult,
    steady_states,
    steady_state_solve,
    spectrum,
    convergence_fidelity,
)
from .observables import (
    DiodeMetrics,
    spin_current_op,
    rectification,
    contrast,
    magnetization_profile,
    fidelity_pure,
    fidelity_mixed,
    concurrence,
    evaluate_diode,
)
from .globalbath import (
    ThermalBathSpec,
    HeatDiodeMetrics,
    eigen_operators,
    bath_rate,
    assemble_global_liouvillian,
    heat_current,
    evaluate_heat_diode,
)
from .jordanwigner import (
    FermionOps,
    jw_fermions,
    build_jw_hamiltonian,
    fermionic_current_metrics,
)
from .sweep import BathConfig, SweepConfig, SweepTable, run_sweep, export
from .presets import FIGURE_PRESETS, run_preset

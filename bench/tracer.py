"""Outside-in spans and result capture around the program's public functions.

Nothing inside the package changes: functions are wrapped at the names
their callers look them up by (module attributes of ``spindiode`` and its
submodules, and ``scipy.sparse.linalg`` as seen from ``steadystate`` and
``liouville``), and every patch is undone when the context ends.  Spans
are kept in memory with their parent, so self times can be computed.
"""

from __future__ import annotations

import contextlib
import json
import time

import spindiode
from spindiode import globalbath, jordanwigner, liouville, observables, steadystate, sweep

# (span name, [(module, attribute) every caller looks the function up by])
TRACED = [
    ("sweep.run_sweep", [(spindiode, "run_sweep")]),
    ("observables.evaluate_diode", [(sweep, "evaluate_diode")]),
    ("jordanwigner.fermionic_current_metrics", [(sweep, "fermionic_current_metrics")]),
    ("globalbath.evaluate_heat_diode", [(sweep, "evaluate_heat_diode")]),
    ("observables.diagnostics", [(sweep, "partial_trace"), (sweep, "fidelity_pure"), (sweep, "concurrence")]),
    ("models.build_hamiltonian", [(observables, "build_hamiltonian"), (globalbath, "build_hamiltonian"),
                                  (spindiode, "build_hamiltonian")]),
    ("liouville.assemble_liouvillian", [(observables, "assemble_liouvillian"),
                                        (jordanwigner, "assemble_liouvillian"),
                                        (spindiode, "assemble_liouvillian")]),
    ("steadystate.steady_state_solve", [(observables, "steady_state_solve"), (jordanwigner, "steady_state_solve"),
                                        (globalbath, "steady_state_solve"), (spindiode, "steady_state_solve")]),
    ("steadystate.steady_states", [(spindiode, "steady_states")]),
    ("steadystate.convergence_fidelity", [(spindiode, "convergence_fidelity")]),
    ("liouville.propagate", [(spindiode, "propagate"), (steadystate, "propagate")]),
    ("globalbath.heat_current", [(globalbath, "heat_current")]),
]

SPAN_NAMES = [name for name, _ in TRACED] + ["steadystate.splu", "steadystate.eigs", "liouville.expm_multiply"]
COUNTERS = ["steadystate.splu_dim", "steadystate.lu_fill"]

# results the correctness checks read; captured in every run, traced or not
CAPTURED = [(sweep, "evaluate_diode"), (sweep, "fermionic_current_metrics"),
            (sweep, "evaluate_heat_diode"), (steadystate, "propagate")]


class _ModuleView:
    """A module whose listed attributes are replaced; the rest pass through."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def _patched(patches):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, value in patches:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Capture:
    """Keeps what the wrapped functions return, for the checks."""

    def __init__(self):
        self.items = []

    def wrap(self, fn):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.items.append(out)
            return out

        return captured

    def installed(self):
        return _patched([(mod, attr, self.wrap(getattr(mod, attr))) for mod, attr in CAPTURED])


class Tracer:
    """Span recorder: [name, parent index, start, end] per call, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self._stack: list[int] = []

    def reset(self):
        self.spans.clear()
        self.counts = dict.fromkeys(COUNTERS, 0.0)

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(out, *args)
            return out

        return traced

    def _after_splu(self, lu, A, *rest):
        # SuperLU.nnz is read off the stored factors; building lu.L and lu.U
        # instead would cost milliseconds inside the enclosing spans
        self.counts["steadystate.splu_dim"] += A.shape[0]
        self.counts["steadystate.lu_fill"] += lu.nnz

    def installed(self):
        patches = []
        for name, sites in TRACED:
            for mod, attr in sites:
                patches.append((mod, attr, self.wrap(name, getattr(mod, attr))))
        ss_la, lv_la = steadystate.spla, liouville.spla
        patches.append((steadystate, "spla", _ModuleView(
            ss_la,
            splu=self.wrap("steadystate.splu", ss_la.splu, after=self._after_splu),
            eigs=self.wrap("steadystate.eigs", ss_la.eigs),
        )))
        patches.append((liouville, "spla", _ModuleView(
            lv_la, expm_multiply=self.wrap("liouville.expm_multiply", lv_la.expm_multiply))))
        return _patched(patches)

    def layer_totals(self) -> dict[str, float]:
        """Summed time (``.s``), self time (``.self_s``) and calls per span name.

        Every name the tracer can record is present, at 0 if it was not called.
        """
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {f"{name}{suffix}": 0.0 for name in SPAN_NAMES for suffix in (".s", ".self_s", ".calls")}
        for (name, _, t0, t1), inner in zip(self.spans, child):
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - inner
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for idx, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "parent": parent, "start": t0, "end": t1}) + "\n")

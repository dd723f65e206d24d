"""Declarative parameter sweeps over the diode models, with CSV/JSON export.

A sweep is a model template plus a list of axes (explicit values or
linspace/logspace descriptors), optional coupled parameters (expressions
of the axis variables and the two critical-line functions, e.g.
``J34 = critical_j34(Delta)``), and a bath block selecting spin, heat or
fermionic transport.  Grid points are evaluated row-major over the axes,
optionally across a process pool; failed points are recorded in an error
column rather than dropped, and the same config always produces the same
table.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields as dc_fields, replace
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .globalbath import HeatDiodeMetrics, evaluate_heat_diode
from .jordanwigner import fermionic_current_metrics
from .liouville import decoherence_channels
from .models import _KNOBS, _VARIANTS, ModelSpec, critical_j34, critical_j34_heat
from .observables import DiodeMetrics, concurrence, evaluate_diode, fidelity_pure
from .spinops import bell_state, partial_trace

__all__ = [
    "BathConfig",
    "SweepConfig",
    "SweepTable",
    "run_sweep",
    "export",
]

_COUPLED_FUNCS = {
    "critical_j34": critical_j34,
    "critical_j34_heat": critical_j34_heat,
}

@dataclass(frozen=True)
class BathConfig:
    """Transport mode and bath parameters shared by all grid points.

    ``mode`` is one of ``spin`` (boundary ladder baths), ``heat``
    (thermal baths under the global master equation) or ``fermion``
    (Jordan-Wigner ladder baths).  ``T`` is the optional single-spin
    decoherence lifetime (T1 = T2 = T, units of 1/J) applied to every
    site in spin mode.  In heat mode ``secular_cutoff`` is the width of the
    frequency clusters that share a jump (see ``ThermalBathSpec``); a
    non-finite temperature, gamma or cutoff fails its point with ValueError.
    A field the mode does not read must keep its default, and ``dT``
    cannot stand beside a non-default ``T_H``: both raise ValueError.
    """

    mode: str = "spin"
    gamma: float = 1.0
    T: float | None = None
    T_C: float = 0.1
    T_H: float = 10.1
    dT: float | None = None
    secular_cutoff: float = 0.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"bath.mode must be spin, heat or fermion, got {self.mode!r}")
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name not in _MODES[self.mode].bath_fields | {"mode"} and value != f.default:
                raise ValueError(f"bath.{f.name}: {self.mode} mode does not read it (got {f.name}={value})")
        if self.dT is not None and self.T_H != BathConfig.T_H:
            raise ValueError(f"bath: dT and T_H={self.T_H} both set the hot temperature; give one")

    @property
    def hot_temperature(self) -> float:
        """T_H, or T_C + dT when a temperature difference is set."""
        return self.T_C + self.dT if self.dT is not None else self.T_H


_BATH_FIELDS = {f.name for f in dc_fields(BathConfig)} - {"mode"}


class _Mode(NamedTuple):
    record: type  # the metric record a point returns
    bath_fields: set[str]  # the BathConfig fields the mode reads
    extra_outputs: list[str]  # outputs computed from the record's states


_MODES = {
    "spin": _Mode(DiodeMetrics, {"gamma", "T"}, ["F_psi_minus_34_r", "F_psi_plus_34_r", "concurrence_34_r"]),
    "fermion": _Mode(DiodeMetrics, {"gamma"}, []),
    "heat": _Mode(HeatDiodeMetrics, {"gamma", "T_C", "T_H", "dT", "secular_cutoff"}, []),
}


def _columns(record: type) -> list[tuple[str, str, int | None]]:
    """(column, field, index) per row cell: scalars keep their names, (forward, reverse) pairs become
    ``<name>_f`` and ``<name>_r`` (index 0 and 1), states are skipped."""
    out = []
    for f in dc_fields(record):
        if str(f.type).startswith("tuple"):
            out += [(f"{f.name}_f", f.name, 0), (f"{f.name}_r", f.name, 1)]
        elif "Operator" not in str(f.type):
            out.append((f.name, f.name, None))
    return out


_KNOWN_OUTPUTS = {mode: [c for c, _, _ in _columns(m.record)] + m.extra_outputs for mode, m in _MODES.items()}
# the scalar fields: the currents and the rectification
_DEFAULT_OUTPUTS = {mode: [c for c, _, i in _columns(m.record) if i is None] for mode, m in _MODES.items()}


@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep: model template, axes, couplings, bath, outputs."""

    model: ModelSpec
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    coupled: tuple[tuple[str, str], ...] = ()
    bath: BathConfig = field(default_factory=BathConfig)
    outputs: tuple[str, ...] = ()
    workers: int = 1

    def __post_init__(self):
        if not self.axes:
            raise ValueError("axes: need at least one axis")
        seen = set()
        for name, values in self.axes:
            self._check_path(f"axes.{name}", name)
            if name in seen:
                raise ValueError(f"axes.{name}: duplicate axis")
            seen.add(name)
            if len(values) == 0:
                raise ValueError(f"axes.{name}: empty value list")
        axis_names = {name for name, _ in self.axes}
        for name, expr in self.coupled:
            self._check_path(f"coupled.{name}", name)
            if name in axis_names:
                raise ValueError(f"coupled.{name}: already an axis")
            try:
                code = compile(expr, "<coupled>", "eval")
            except SyntaxError as exc:
                raise ValueError(f"coupled.{name}: {exc}") from None
            allowed = axis_names | set(_COUPLED_FUNCS)
            bad = set(code.co_names) - allowed
            if bad:
                raise ValueError(
                    f"coupled.{name}: unknown name(s) {sorted(bad)}; "
                    f"only axis variables and {sorted(_COUPLED_FUNCS)} may appear"
                )
        swept = axis_names | {name for name, _ in self.coupled}
        if all(n in swept or getattr(self.bath, n) != getattr(BathConfig, n) for n in ("T_H", "dT")):
            raise ValueError("T_H and dT both set the hot temperature; give one")
        outputs = self.outputs or tuple(_DEFAULT_OUTPUTS[self.bath.mode])
        known = _KNOWN_OUTPUTS[self.bath.mode]
        for name in outputs:
            if name not in known:
                raise ValueError(f"outputs.{name}: unknown metric for mode {self.bath.mode}; choose from {known}")
        object.__setattr__(self, "outputs", tuple(outputs))
        positive_int("workers", self.workers)

    def _check_path(self, label: str, name: str) -> None:
        if name in _BATH_FIELDS - _MODES[self.bath.mode].bath_fields:
            raise ValueError(f"{label}: {self.bath.mode} mode does not read bath.{name}")
        layout, site = _VARIANTS[self.model.variant], name.removeprefix("local_field_")
        if site != name and site.isdigit():
            if not 1 <= int(site) <= layout.n_sites:
                raise ValueError(f"{label}: site out of range for {layout.n_sites} sites")
        elif name in _KNOBS - layout.knobs:
            raise ValueError(f"{label}: {self.model.variant.value} does not take {name}")
        elif name not in _KNOBS | _BATH_FIELDS:
            raise ValueError(f"{label}: not a model or bath parameter")

    def canonical_json(self) -> str:
        doc = {
            "model": json.loads(self.model.to_json()),
            "axes": [[name, list(values)] for name, values in self.axes],
            "coupled": {name: expr for name, expr in self.coupled},
            "bath": {f.name: getattr(self.bath, f.name) for f in dc_fields(self.bath)},
            "outputs": list(self.outputs),
        }
        return json.dumps(doc, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("sweep config must be a JSON object")
        unknown = set(doc) - {"model", "axes", "coupled", "bath", "outputs", "workers"}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        model = ModelSpec.from_json(json.dumps(doc.get("model", {})))
        axes = tuple(
            (name, _expand_axis(name, values)) for name, values in doc.get("axes", [])
        )
        coupled = tuple(sorted(doc.get("coupled", {}).items()))
        bath_doc = doc.get("bath", {})
        bad = set(bath_doc) - {f.name for f in dc_fields(BathConfig)}
        if bad:
            raise ValueError(f"bath: unknown fields {sorted(bad)}")
        bath = BathConfig(**bath_doc)
        return cls(
            model=model,
            axes=axes,
            coupled=coupled,
            bath=bath,
            outputs=tuple(doc.get("outputs", ())),
            workers=doc.get("workers", 1),
        )


def _expand_axis(name: str, values) -> tuple[float, ...]:
    """Explicit list, or {linspace|logspace: [start, stop, num]}."""
    if isinstance(values, dict):
        if len(values) != 1:
            raise ValueError(f"axes.{name}: descriptor must have exactly one key")
        kind, args = next(iter(values.items()))
        if kind == "linspace":
            return tuple(float(x) for x in np.linspace(*args))
        if kind == "logspace":
            return tuple(float(x) for x in np.logspace(*args))
        raise ValueError(f"axes.{name}: unknown descriptor {kind!r}")
    return tuple(float(x) for x in values)


@dataclass
class SweepTable:
    """Rectangular sweep output: header, rows, provenance."""

    header: list[str]
    rows: list[list]
    provenance: dict

    def column(self, name: str) -> list:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]

    @classmethod
    def from_json(cls, text: str) -> "SweepTable":
        """Read an :func:`export` JSON document: a null cell is NaN unless flagged infinite."""
        doc = json.loads(text)

        def cell(obj, name):
            if obj[name] is not None:
                return obj[name]
            if obj.get(f"{name}_negative_infinite"):
                return -math.inf
            return math.inf if obj.get(f"{name}_infinite") else math.nan

        rows = [[cell(obj, name) for name in doc["header"]] for obj in doc["rows"]]
        return cls(header=doc["header"], rows=rows, provenance=doc["provenance"])


def _point_model(config: SweepConfig, params: dict[str, float]) -> tuple[ModelSpec, BathConfig]:
    spec = config.model
    bath = config.bath
    for name, value in params.items():
        if name in _BATH_FIELDS:
            bath = replace(bath, **{name: value})
        elif name.startswith("local_field_"):
            fields = list(spec.local_fields or (0.0,) * spec.n_sites)
            fields[int(name.removeprefix("local_field_")) - 1] = value
            spec = spec.replace(local_fields=tuple(fields))
        else:
            spec = spec.replace(**{name: value})
    return spec, bath


def _evaluate_point(config: SweepConfig, params: dict[str, float]) -> dict[str, float]:
    spec, bath = _point_model(config, params)
    if bath.mode == "heat":
        m = evaluate_heat_diode(
            spec,
            T_C=bath.T_C,
            T_H=bath.hot_temperature,
            gamma=bath.gamma,
            secular_cutoff=bath.secular_cutoff,
        )
    elif bath.mode == "fermion":
        m = fermionic_current_metrics(spec, gamma=bath.gamma)
    else:
        extra = decoherence_channels(spec.n_sites, bath.T) if bath.T is not None else ()
        m = evaluate_diode(spec, gamma=bath.gamma, extra_dissipators=extra)
    out = {c: getattr(m, f) if i is None else getattr(m, f)[i] for c, f, i in _columns(type(m))}
    if set(config.outputs) & set(_MODES[bath.mode].extra_outputs):
        # entanglement diagnostics live on the middle pair of the chain
        reduced = partial_trace(m.rho_r, keep=(3, 4))
        out["F_psi_minus_34_r"] = fidelity_pure(reduced, bell_state("psi-"))
        out["F_psi_plus_34_r"] = fidelity_pure(reduced, bell_state("psi+"))
        out["concurrence_34_r"] = concurrence(reduced)
    return out


def _run_point(args) -> tuple[dict[str, float] | None, str]:
    config, params = args
    try:
        return _evaluate_point(config, params), ""
    except Exception as exc:  # recorded per-row, never dropped
        return None, f"{type(exc).__name__}: {exc}"


def _grid(config: SweepConfig):
    names = [name for name, _ in config.axes]
    for combo in product(*(values for _, values in config.axes)):
        params = dict(zip(names, combo))
        ns = dict(params)
        ns.update(_COUPLED_FUNCS)
        for cname, expr in config.coupled:
            params[cname] = float(eval(expr, {"__builtins__": {}}, ns))  # noqa: S307 - validated names only
        yield params


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate every grid point; row-major order over the axes."""
    points = list(_grid(config))
    args = [(config, p) for p in points]
    workers = config.workers
    if workers == 1 or len(points) <= 1:
        results = [_run_point(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, args, chunksize=1))

    param_names = [name for name, _ in config.axes] + [name for name, _ in config.coupled]
    header = param_names + list(config.outputs) + ["error"]
    rows = []
    for params, (metrics, err) in zip(points, results):
        row = [params[n] for n in param_names]
        if metrics is None:
            row.extend([math.nan] * len(config.outputs))
        else:
            row.extend(metrics[n] for n in config.outputs)
        row.append(err)
        rows.append(row)
    provenance = {"config_sha256": config.digest(), "version": __version__}
    return SweepTable(header=header, rows=rows, provenance=provenance)


def _format_cell(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return format(v, ".17g")
    return str(v)


def export(table: SweepTable, fmt: str, path) -> Path:
    """Write a table as CSV (17 significant digits) or JSON row objects.

    In JSON a NaN cell is null, +inf is null with ``"<col>_infinite": true``
    and -inf is null with ``"<col>_negative_infinite": true``.
    """
    if not table.rows:
        raise ValueError("refusing to export an empty table")
    path = Path(path)
    if fmt == "csv":
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.header)
            for row in table.rows:
                writer.writerow([_format_cell(v) for v in row])
        return path
    if fmt == "json":
        out_rows = []
        for row in table.rows:
            obj = {}
            for name, v in zip(table.header, row):
                # JSON has no inf or nan: both become null, an infinity with a flag
                obj[name] = None if isinstance(v, float) and not math.isfinite(v) else v
                if isinstance(v, float) and math.isinf(v):
                    obj[f"{name}_infinite" if v > 0 else f"{name}_negative_infinite"] = True
            out_rows.append(obj)
        doc = {"header": table.header, "rows": out_rows, "provenance": table.provenance}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        return path
    raise ValueError(f"unknown export format {fmt!r}")


def default_workers() -> int:
    """--workers fallback: SPINDIODE_WORKERS, else 1."""
    env = os.environ.get("SPINDIODE_WORKERS")
    if env is None:
        return 1
    try:
        n = int(env)
    except ValueError as exc:
        raise ValueError(f"SPINDIODE_WORKERS must be an integer, got {env!r}") from exc
    return positive_int("SPINDIODE_WORKERS", n)


def positive_int(name: str, value) -> int:
    """``value`` if it is an integer >= 1; otherwise a ValueError naming ``name``."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value

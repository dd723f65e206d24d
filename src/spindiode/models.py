"""Hamiltonian variants of the boundary-driven spin-chain diode.

The reference chain is six spins with XX bonds arranged so that two
interfering paths connect the left pair to the right pair through the
middle pair (3, 4):

    H/J = X12 + (1+delta) X23 + X24 + (J34/J) X34 + X35 + X45 + X56
          + Delta Z12

with X_ij the XX exchange and Z_ij = sigma_z sigma_z.  All energies are
measured in units of J (J = 1 internally).  The other variants replace
the Z coupling by local fields, flip interference signs, add spins at
either end, add perturbations, or attach a driven shadow qubit to spin 3.
Each variant is one row of ``_VARIANTS``: its sites, knobs, bath ends, the
transports that accept it, and its couplings as a function of the spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dc_fields, replace as dc_replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .spinops import Operator

__all__ = [
    "Variant",
    "Term",
    "ModelSpec",
    "build_hamiltonian",
    "critical_j34",
    "critical_j34_heat",
    "restrict_to_sites",
    "chain_ends",
    "current_bonds",
]


class Variant(Enum):
    DIODE = "Diode"
    DIODE_PERTURBED = "DiodePerturbed"
    FIELD_H1 = "FieldVariant_H1"
    SIGN_H2 = "SignVariant_H2"
    HEAT_HQ = "Heat_HQ"
    EXTENDED_MXX = "Extended_mXX"
    EXTENDED_XXM = "Extended_XXm"
    EXTENDED_XXZM = "Extended_XXZm"
    SHADOW_CORRECTED = "ShadowCorrected"
    LINEAR_REFERENCE = "LinearReference"


class Term(NamedTuple):
    """One Hamiltonian term: ``coeff`` times the named coupling.

    kind is one of ``xx`` (XX exchange), ``zz`` (sigma_z sigma_z),
    ``z`` (single-site sigma_z) or ``raise2`` (sigma_+ sigma_+ + h.c.).
    Sites are 1-based.
    """

    kind: str
    sites: tuple[int, ...]
    coeff: float


def _diode(spec: ModelSpec, offset: int = 0, sign: float = 1.0) -> list[Term]:
    """The seven XX bonds of the six-spin chain on sites 1 + offset .. 6 + offset; ``sign``
    multiplies the bonds (2, 3) and (3, 5), one arm of each interfering path."""
    bonds = {(1, 2): 1.0, (2, 3): sign * (1.0 + spec.delta), (2, 4): 1.0, (3, 4): spec.J34,
             (3, 5): sign * 1.0, (4, 5): 1.0, (5, 6): 1.0}
    return [Term("xx", (a + offset, b + offset), coeff) for (a, b), coeff in bonds.items()]


def _z(coeff: float, sites) -> list[Term]:
    return [Term("z", (i,), coeff) for i in sites]


class _Layout(NamedTuple):
    n_sites: int
    knobs: set[str]  # the numeric fields that may leave their default
    ends: tuple[int, int]  # the bath sites, hot end first under forward bias
    transports: set[str]  # the sweep bath modes that accept the variant
    terms: Callable[[ModelSpec], list[Term]]  # the couplings in assembly order, zero ones included


_DIODE = {"Delta", "delta", "J34"}
_FIELD = {"delta", "J34", "h"}
_SPIN, _HEAT = {"spin"}, {"spin", "heat"}
_VARIANTS = {
    Variant.DIODE: _Layout(6, _DIODE, (1, 6), {"spin", "fermion"},
                           lambda s: _diode(s) + [Term("zz", (1, 2), s.Delta)]),
    Variant.DIODE_PERTURBED: _Layout(
        6, _DIODE | {"h3", "h4", "delta_prime"}, (1, 6), _SPIN,
        lambda s: _diode(s) + [Term("zz", (1, 2), s.Delta), Term("z", (3,), s.h3), Term("z", (4,), s.h4),
                               Term("xx", (4, 5), s.delta_prime)],
    ),
    Variant.FIELD_H1: _Layout(6, _FIELD, (1, 6), _SPIN, lambda s: _diode(s) + _z(s.h, [1, 2])),
    Variant.SIGN_H2: _Layout(6, _FIELD, (1, 6), _SPIN, lambda s: _diode(s, sign=-1.0) + _z(s.h, [1, 2])),
    Variant.HEAT_HQ: _Layout(6, _FIELD | {"omega_global"}, (1, 6), _HEAT,
                             lambda s: _diode(s) + _z(s.h, [1, 2]) + _z(s.omega_global, range(1, 7))),
    Variant.EXTENDED_MXX: _Layout(7, _DIODE, (1, 7), _SPIN,
                                  lambda s: _diode(s) + [Term("zz", (1, 2), s.Delta), Term("xx", (6, 7), 1.0)]),
    Variant.EXTENDED_XXM: _Layout(7, _DIODE, (1, 7), _SPIN,
                                  lambda s: _diode(s, 1) + [Term("zz", (2, 3), s.Delta), Term("xx", (1, 2), 1.0)]),
    Variant.EXTENDED_XXZM: _Layout(
        7, _DIODE, (1, 7), _SPIN,
        lambda s: _diode(s, 1) + [Term("zz", (2, 3), s.Delta), Term("xx", (1, 2), 1.0), Term("zz", (1, 2), s.Delta)],
    ),
    # the baths stay on the six-spin chain; the shadow qubit has its own decay channel
    Variant.SHADOW_CORRECTED: _Layout(
        7, _DIODE | {"A", "omega_drive", "gamma_S"}, (1, 6), _SPIN,
        lambda s: _diode(s) + [Term("zz", (1, 2), s.Delta), Term("raise2", (3, 7), s.A),
                               Term("z", (7,), -s.resolved_omega_drive())],
    ),
    # bonds (1,2),(2,4),(4,5),(5,6) of the six-spin chain survive the removal of spin 3, renumbered, so
    # delta and J34 do not enter; Delta, h and omega_global let it serve both the spin and the heat diode
    Variant.LINEAR_REFERENCE: _Layout(
        5, _DIODE | {"h", "omega_global"}, (1, 5), _HEAT,
        lambda s: [Term("xx", (i, i + 1), 1.0) for i in range(1, 5)] + [Term("zz", (1, 2), s.Delta)]
        + _z(s.h, [1, 2]) + _z(s.omega_global, range(1, 6)),
    ),
}
_KNOBS = set().union(*(layout.knobs for layout in _VARIANTS.values()))


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one Hamiltonian variant.

    All energies are in units of J, so ``J`` itself must be 1.0; every
    numeric field must be a finite number, not a bool or a string.  ``local_fields`` adds
    sum_i local_fields[i-1] * sigma_z^(i) on top of any variant; it must
    have one entry per site.  For ShadowCorrected, ``omega_drive=None``
    resolves to Delta + 1.2 (the empirically best drive detuning) and the
    shadow decay rate ``gamma_S`` is consumed by the dissipator builders,
    not by the Hamiltonian.
    """

    variant: Variant = Variant.DIODE
    J: float = 1.0
    Delta: float = 0.0
    delta: float = 0.0
    J34: float = 1.0
    h: float = 0.0
    omega_global: float = 0.0
    h3: float = 0.0
    h4: float = 0.0
    delta_prime: float = 0.0
    A: float = 0.1
    omega_drive: float | None = None
    gamma_S: float = 1.0
    local_fields: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))
        if self.local_fields is not None:
            # validate refuses a bool or a string
            fields = tuple(x if isinstance(x, (bool, str)) else float(x) for x in self.local_fields)
            object.__setattr__(self, "local_fields", fields)
        self.validate()

    @property
    def n_sites(self) -> int:
        return _VARIANTS[self.variant].n_sites

    def validate(self) -> None:
        if self.J != 1.0:
            raise ValueError(f"J is the unit of energy and must be 1.0, got {self.J!r}")
        active = _VARIANTS[self.variant].knobs
        for f in dc_fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, (bool, str)) for x in items):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if f.name != "variant" and value is not None and not all(map(math.isfinite, items)):
                raise ValueError(f"{f.name} must be finite, got {value}")
            # a knob the variant does not take must keep its default (nonzero for the shadow qubit)
            if f.name in _KNOBS and f.name not in active and value != f.default:
                raise ValueError(f"{self.variant.value} does not take {f.name} (got {f.name}={value})")
        if self.local_fields is not None and len(self.local_fields) != self.n_sites:
            raise ValueError(f"local_fields needs {self.n_sites} entries, got {len(self.local_fields)}")

    def resolved_omega_drive(self) -> float:
        if self.variant is not Variant.SHADOW_CORRECTED:
            raise ValueError("omega_drive only applies to ShadowCorrected")
        if self.omega_drive is None:
            return self.Delta + 1.2
        return self.omega_drive

    def replace(self, **kwargs) -> "ModelSpec":
        return dc_replace(self, **kwargs)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        doc["variant"] = self.variant.value
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("model document must be a JSON object")
        known = {f.name for f in dc_fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown model fields: {sorted(unknown)}")
        if "variant" in doc:
            doc["variant"] = Variant(doc["variant"])
        return cls(**doc)


def hamiltonian_terms(spec: ModelSpec) -> list[Term]:
    """The term list of a variant, before assembly into a matrix: its row's couplings, then
    ``local_fields``, with zero coefficients dropped."""
    terms = _VARIANTS[spec.variant].terms(spec)
    terms += [Term("z", (i,), f) for i, f in enumerate(spec.local_fields or (), 1)]
    return [t for t in terms if t.coeff != 0.0]


def _assemble(n_sites: int, terms: list[Term]) -> np.ndarray:
    """Dense H from bit masks of the basis index, adding the terms in order.

    Site s is bit n_sites - s of the index, set for up.  ``xx`` adds 2 coeff where
    the two bits differ, at the index with both flipped; ``zz`` and ``z`` add coeff
    times the sign(s) of sigma_z (-1 down, +1 up) on the diagonal; ``raise2`` adds
    coeff where both bits agree, at the index with both flipped.  These are the
    entries, summed in the same order, of the products of ``site_operator`` matrices.
    """
    k = np.arange(2**n_sites)
    mat, diag = np.zeros((k.size, k.size), dtype=complex), np.zeros(k.size)
    for kind, sites, coeff in terms:
        bits = [(k >> (n_sites - s)) & 1 for s in sites]
        if kind in ("zz", "z"):
            diag += coeff * np.prod([2 * b - 1 for b in bits], axis=0)
        elif kind in ("xx", "raise2"):
            at = k[(bits[0] != bits[1]) if kind == "xx" else (bits[0] == bits[1])]
            flip = sum(1 << (n_sites - s) for s in sites)
            mat[at ^ flip, at] += coeff * (2.0 if kind == "xx" else 1.0)
        else:
            raise ValueError(f"unknown term kind {kind!r}")
    mat[k, k] = diag
    return mat


def build_hamiltonian(spec: ModelSpec) -> Operator:
    """Hermitian Hamiltonian of the variant, in units of J."""
    return Operator(_assemble(spec.n_sites, hamiltonian_terms(spec)))


def critical_j34(Delta):
    """Interface coupling at which the diode closes, as a function of Delta.

    The closing resonance follows J34 = -(Delta + 1.3) for Delta > 0 and
    the mirrored branch (-Delta + 1.3) for Delta < 0; at Delta = 0 the
    positive-Delta branch limit -1.3 is returned.  Accepts scalars or
    arrays.  The line is empirical: the true ridge drifts slowly with
    delta, so sweeps should scan a window around it.
    """
    d = np.asarray(Delta, dtype=float)
    out = np.where(d < 0.0, -d + 1.3, -(d + 1.3))
    return float(out) if out.ndim == 0 else out


def critical_j34_heat(h):
    """Closing line of the local-field (heat) variant: J34 = h + 1.3."""
    hh = np.asarray(h, dtype=float)
    out = hh + 1.3
    return float(out) if out.ndim == 0 else out


def restrict_to_sites(spec: ModelSpec, sites) -> Operator:
    """Sub-Hamiltonian of the variant with only the terms fully supported on ``sites``.

    ``sites`` must be a contiguous 1-based window inside the chain, e.g. [1, 2, 3, 4]
    (else ValueError); couplings crossing the cut are dropped and the kept sites are
    renumbered 1..len(sites).
    """
    window = list(sites)
    if not window or window[0] < 1 or window[-1] > spec.n_sites:
        raise ValueError(f"sites must be a nonempty window of 1..{spec.n_sites}, got {window}")
    if window != list(range(window[0], window[0] + len(window))):
        raise ValueError(f"sites must be contiguous, got {window}")
    relabel = {s: k + 1 for k, s in enumerate(window)}
    kept = [
        Term(t.kind, tuple(relabel[s] for s in t.sites), t.coeff)
        for t in hamiltonian_terms(spec)
        if all(s in relabel for s in t.sites)
    ]
    return Operator(_assemble(len(window), kept))


def chain_ends(spec: ModelSpec) -> tuple[int, int]:
    """The two bath-coupled sites (hot end first under forward bias)."""
    return _VARIANTS[spec.variant].ends


def current_bonds(spec: ModelSpec) -> tuple[tuple[int, int], tuple[int, int]]:
    """First and last XX bond of the chain (where currents are measured)."""
    first, last = chain_ends(spec)
    return ((first, first + 1), (last - 1, last))

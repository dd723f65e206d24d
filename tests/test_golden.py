"""Regression gate: figure presets at a coarse grid against committed tables.

Every preset that runs in well under a second at ``points=2`` is compared
cell by cell with ``golden_presets.json``; fig3c enters at ``points=1`` so
that the decoherence channels and the seven-spin ShadowCorrected chain are
covered too.  Currents, R, C and fidelities must agree to 1e-10 relative.
Heat R_Q and K_r at h >= 7.5 get 1e-3: there the reverse heat current is
about 1e-9 of the forward one and today's solve and ``heat_current`` are
only good to 6.5e-4 relative (ROADMAP baseline table).  Error cells and
other strings compare as strings, non-finite cells must match exactly.

After a change that moves outputs on purpose, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and name the cells that
moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
import math
from importlib.resources import files
from pathlib import Path

import pytest

from spindiode.presets import run_preset

GOLDEN = Path(__file__).with_name("golden_presets.json")
# fig5 and the seven-spin sweeps fig4e, fig9c and fig9d stay out: 30+ s at two points
POINTS = {
    name: 2
    for name in (
        "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3d", "fig4a", "fig4bc", "fig4d", "fig6a",
        "fig6b", "fig6c", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig9a", "fig9b",
    )
}
POINTS["fig3c"] = 1
RTOL = 1e-10
HEAT_RTOL = 1e-3
_DOCUMENTS = json.loads(files("spindiode").joinpath("presets.json").read_text())


def _tables(name: str) -> dict:
    return {
        part: {"header": table.header, "rows": table.rows}
        for part, table in run_preset(name, points=POINTS[name]).items()
    }


def _rtol(name: str, part: str, column: str, row: dict) -> float:
    if column not in ("R_Q", "K_r"):
        return RTOL
    # h is an axis of the row or a field of the preset's model (fig8b)
    model_h = _DOCUMENTS[name]["tables"][part]["model"].get("h", 0.0) if name in _DOCUMENTS else 0.0
    return HEAT_RTOL if row.get("h", model_h) >= 7.5 else RTOL


def _same(got, want, rtol: float) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= rtol * abs(want)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_gated_preset(golden):
    assert sorted(golden) == sorted(POINTS)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_preset_matches_golden_table(name, golden):
    got = _tables(name)
    want = golden[name]
    assert sorted(got) == sorted(want), f"{name}: parts differ"
    for part, table in want.items():
        assert got[part]["header"] == table["header"], f"{name}/{part}: header differs"
        assert len(got[part]["rows"]) == len(table["rows"]), f"{name}/{part}: row count differs"
        for k, (row, ref) in enumerate(zip(got[part]["rows"], table["rows"])):
            cells = dict(zip(table["header"], ref))
            for column, g, w in zip(table["header"], row, ref):
                rtol = _rtol(name, part, column, cells)
                assert _same(g, w, rtol), f"{name}/{part} row {k} {column}: {g!r} vs golden {w!r} (rtol {rtol})"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _tables(name) for name in sorted(POINTS)}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")

"""Regression gate: figure presets at a coarse grid against committed tables.

Every preset that runs in well under a second at ``points=2`` is compared
cell by cell with ``golden_presets.json``; fig3c enters at ``points=1`` so
that the decoherence channels and the seven-spin ShadowCorrected chain are
covered too.  Currents, R, C and fidelities must agree to 1e-10 relative.
Heat R_Q and K_r at h >= 7.5 get 1e-3: there the reverse heat current is
about 1e-9 of the forward one.  The one-step refinement that wrote the
earlier file was off there by up to 6.5e-4; the converged solve agrees
across LU orderings to 3.2e-9, and the gate waits for a high-precision
reference to tighten (ROADMAP item 2).  Error cells and other strings
compare as strings, non-finite cells must match exactly.

After a change that moves outputs on purpose, list the cells that moved
with ``PYTHONPATH=src python tests/test_golden.py --diff`` (preset, table,
row, column, committed and new value, relative change, gate; nothing is
written), regenerate the file with ``PYTHONPATH=src python
tests/test_golden.py`` and name the cells that moved, and why, in
CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys
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


def _cells(name: str, got: dict, want: dict):
    """(part, row, column, new, committed, rtol) of every cell of a preset's committed tables."""
    for part, table in want.items():
        for k, (row, ref) in enumerate(zip(got[part]["rows"], table["rows"])):
            cells = dict(zip(table["header"], ref))
            for column, g, w in zip(table["header"], row, ref):
                yield part, k, column, g, w, _rtol(name, part, column, cells)


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
    for part, k, column, g, w, rtol in _cells(name, got, want):
        assert _same(g, w, rtol), f"{name}/{part} row {k} {column}: {g!r} vs golden {w!r} (rtol {rtol})"


def _diff(tables: dict, golden: dict) -> None:
    """Print every cell that is not bit-equal to the committed one, with its relative change and gate."""
    print("preset\ttable\trow\tcolumn\tcommitted\tnew\trelative\tgate")
    for name, want in golden.items():
        got = tables[name]
        if sorted(got) != sorted(want) or any(
            got[p]["header"] != want[p]["header"] or len(got[p]["rows"]) != len(want[p]["rows"]) for p in want
        ):
            print(f"{name}\t-\t-\t-\ttables differ in parts, headers or row counts")
            continue
        for part, k, column, g, w, rtol in _cells(name, got, want):
            if _same(g, w, 0.0):
                continue
            numeric = all(isinstance(v, (int, float)) for v in (g, w)) and math.isfinite(w) and w != 0
            rel = f"{(g - w) / abs(w):.2e}" if numeric else "-"
            gate = f"{rtol:g} {'ok' if _same(g, w, rtol) else 'FAILS'}"
            g, w = (float(v) if numeric else v for v in (g, w))
            print(f"{name}\t{part}\t{k}\t{column}\t{w!r}\t{g!r}\t{rel}\t{gate}")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit("usage: python tests/test_golden.py [--diff]")
    tables = {name: _tables(name) for name in sorted(POINTS)}
    if sys.argv[1:] == ["--diff"]:
        _diff(tables, json.loads(GOLDEN.read_text()))
    else:
        GOLDEN.write_text(json.dumps(tables, indent=1) + "\n")
        print(f"wrote {GOLDEN}")

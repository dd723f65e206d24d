import json
import math
from importlib.resources import files

import pytest

from spindiode import presets
from spindiode.presets import FIGURE_PRESETS, run_preset

EXPECTED = {
    "fig2a", "fig2b", "fig2c",
    "fig3a", "fig3b", "fig3c", "fig3d",
    "fig4a", "fig4bc", "fig4d", "fig4e",
    "fig5",
    "fig6a", "fig6b", "fig6c",
    "fig7a", "fig7b", "fig7c",
    "fig8a", "fig8b",
    "fig9a", "fig9b", "fig9c", "fig9d",
}


def test_registry_is_complete():
    assert set(FIGURE_PRESETS) == EXPECTED
    assert all(callable(fn) for fn in FIGURE_PRESETS.values())
    with pytest.raises(ValueError, match="unknown preset"):
        run_preset("fig1z")


def test_fig2c_currents_on_critical_line():
    table = run_preset("fig2c", points=3)["currents"]
    assert table.header[:4] == ["Delta", "J34", "J_f", "J_r"]
    assert len(table.rows) == 3
    for Delta, J34 in zip(table.column("Delta"), table.column("J34")):
        assert J34 == pytest.approx(-(Delta + 1.3))
    for jf, jr in zip(table.column("J_f"), table.column("J_r")):
        assert jf > 0.0
        assert abs(jr) < jf
    assert all(err == "" for err in table.column("error"))


def test_fig3a_mechanism_correlates_contrast_and_entanglement():
    table = run_preset("fig3a", points=3)["mechanism"]
    rows = [dict(zip(table.header, r)) for r in table.rows]
    # away from the low-Delta end the gate pair is a near-perfect singlet
    for row in rows[1:]:
        assert row["C"] > 0.999
        assert row["F_psi_minus_34_r"] > 0.999
        assert row["concurrence_34_r"] > 0.999
        assert row["R"] > 1e4
    assert rows[0]["R"] < 10.0  # Delta = 1 sits below the working region


def test_fig9b_flipped_bond_uses_the_symmetric_bell_state():
    table = run_preset("fig9b", points=3)["mechanism"]
    rows = [dict(zip(table.header, r)) for r in table.rows]
    for row in rows[:2]:  # h = -10, -5.5
        assert row["F_psi_plus_34_r"] > 0.999
        assert row["concurrence_34_r"] > 0.999
        assert row["R"] > 1e4


def test_fig4bc_profiles():
    table = run_preset("fig4bc")["profiles"]
    assert table.header == ["site", "sz_forward", "sz_reverse"]
    assert table.column("site") == [1, 2, 3, 4, 5, 6]
    fwd = table.column("sz_forward")
    rev = table.column("sz_reverse")
    assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in fwd + rev)
    # hot mixing keeps the injection side near zero, the drain saturates
    assert fwd[0] > -0.1 and fwd[5] < -0.9
    assert rev[0] < -0.999  # reverse bias drains at site 1


def test_fig4a_gate_closing_dynamics():
    table = run_preset("fig4a", points=3)["dynamics"]
    rows = [dict(zip(table.header, r)) for r in table.rows]
    assert [row["t"] for row in rows] == [0.0, 100.0, 200.0]
    assert rows[0]["F_initial"] == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["F_bell_gate"] == pytest.approx(0.0, abs=1e-12)
    # the excitation pair decays away while the gate singlet builds up
    assert rows[-1]["F_initial"] < 1e-5
    assert rows[-1]["F_bell_gate"] == pytest.approx(0.9278, abs=5e-3)
    for row in rows:
        for key in ("F_initial", "F_bell_pairs_12_34", "F_bell_gate"):
            assert -1e-9 <= row[key] <= 1.0 + 1e-9


def test_points_override_controls_grid_size():
    table = run_preset("fig2c", points=4)["currents"]
    assert len(table.rows) == 4
    assert not any(math.isnan(v) for v in table.column("J_f"))


# SweepConfig.digest() of every shipped table at default points, as the
# hand-written SweepConfig constructors that the documents replaced gave it
DEFAULT_DIGESTS = {
    "fig2a/landscape": "92e8814ae3b03320",
    "fig2b/diode": "58ffca6f366245c4",
    "fig2b/linear": "7e81ce0a40a62c87",
    "fig2c/currents": "7dcf031fcad874ff",
    "fig3a/mechanism": "ab6b3219d8262999",
    "fig3b/delta_prime": "4db7c04784011670",
    "fig3b/h3": "521a363fa11686f0",
    "fig3b/h4": "f413ccf2c9132ce1",
    "fig3c/corrected": "a275985ee7257633",
    "fig3c/linear": "2e723a85261f4de6",
    "fig3c/uncorrected": "8c51385d97a746c8",
    "fig4d/h1": "1d923563e25bbdbb",
    "fig4d/h2": "11d859bf9f6d2f38",
    "fig4d/h5": "8e9eb640ec92587b",
    "fig4d/h6": "7e76c34eadcfb7d7",
    "fig4e/corrected": "619d01b137fa031f",
    "fig4e/uncorrected": "b671ed699163404c",
    "fig6a/matched": "cfefcd7f756506a3",
    "fig6b/gamma": "92eacd0a287710e9",
    "fig6c/fermionic": "4e5d246a6dd1b110",
    "fig7a/landscape": "d33a46961c40a44a",
    "fig7b/heat": "65e129530b240b8d",
    "fig7b/linear": "0a3cb31094408642",
    "fig7c/currents": "3c39ce7f2a9f1a7a",
    "fig8a/vary_h": "fdaa5dd69efd692e",
    "fig8b/vary_dT": "61aa9137d2611e53",
    "fig9a/field_variant": "10d5a18183b74118",
    "fig9a/sign_variant": "16c63f6c23ddde73",
    "fig9b/mechanism": "681a8321e6af028e",
    "fig9c/appended": "ae25bb58f6685bd9",
    "fig9c/prepended": "24f9409e69135b8b",
    "fig9d/landscape": "05db6915dc8741fb",
}


def test_shipped_documents_are_sweep_configs(monkeypatch):
    """Every table parses as a sweep config; points only resizes descriptor axes."""
    documents = json.loads(files("spindiode").joinpath("presets.json").read_text())
    monkeypatch.setattr(presets, "run_sweep", lambda config: config)  # capture, solve nothing
    seen = {}
    for name, document in documents.items():
        assert document["doc"]
        default = run_preset(name)
        small = run_preset(name, points=3, workers=2)
        assert list(default) == list(small) == list(document["tables"])
        for part, table in document["tables"].items():
            seen[f"{name}/{part}"] = default[part].digest()
            assert small[part].workers == 2
            for (axis, raw), (_, values), (_, small_values) in zip(
                table["axes"], default[part].axes, small[part].axes
            ):
                expected = 3 if isinstance(raw, dict) else len(values)
                assert len(small_values) == expected, (name, part, axis)
                if not isinstance(raw, dict):
                    assert small_values == values
    assert seen == DEFAULT_DIGESTS
    assert {p: c.digest() for p, c in run_preset("fig3d").items()} == {
        p: c.digest() for p, c in run_preset("fig7b").items()
    }
    for bad in (0, -2, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            run_preset("fig2c", points=bad)
        with pytest.raises(ValueError, match="positive integer"):
            run_preset("fig4bc", workers=bad)

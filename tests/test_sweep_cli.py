import json
import math

import pytest

from spindiode.cli import main
from spindiode.globalbath import evaluate_heat_diode
from spindiode.jordanwigner import fermionic_current_metrics
from spindiode.models import _KNOBS, ModelSpec, Variant
from spindiode.observables import evaluate_diode
from spindiode.presets import run_preset
from spindiode.sweep import _BATH_FIELDS, _MODES, BathConfig, SweepConfig, SweepTable, export, run_sweep

TUNED = {"variant": "Diode", "Delta": 5.0, "delta": 0.03, "J34": -6.3}


def small_config(**overrides) -> str:
    doc = {
        "model": TUNED,
        "axes": [["Delta", [5.0]], ["delta", [0.01, 0.1]]],
        "coupled": {"J34": "critical_j34(Delta)"},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_axis_expansion():
    cfg = SweepConfig.from_json(
        small_config(axes=[["delta", {"linspace": [0.0, 1.0, 5]}], ["Delta", {"logspace": [0, 2, 3]}]])
    )
    assert cfg.axes[0][1] == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert cfg.axes[1][1] == (1.0, 10.0, 100.0)
    with pytest.raises(ValueError):
        SweepConfig.from_json(small_config(axes=[["delta", {"linspace": [0, 1, 3], "extra": 1}]]))
    with pytest.raises(ValueError):
        SweepConfig.from_json(small_config(axes=[["delta", {"geomspace": [1, 2, 3]}]]))
    for kind in ("linspace", "logspace"):
        for args in ([0, 1], [0, 1, 3, 4], 3):
            with pytest.raises(ValueError, match=rf"axes.delta: {kind} takes \[start, stop, num\]"):
                SweepConfig.from_json(small_config(axes=[["delta", {kind: args}]]))
        for num in (0, 2.5, True):
            with pytest.raises(ValueError, match=f"axes.delta: {kind} num must be a positive integer"):
                SweepConfig.from_json(small_config(axes=[["delta", {kind: [0, 1, num]}]]))
        # JSON true is a bool, which numpy would take as 1, and a string is no number either
        for args in ([True, 2, 3], [0, False, 3], ["0.01", 0.02, 2], [0, "1", 3]):
            with pytest.raises(ValueError, match=f"axes.delta: {kind} start and stop must be numbers"):
                SweepConfig.from_json(small_config(axes=[["delta", {kind: args}]]))
    for values in ([True, 2], ["0.01"]):
        with pytest.raises(ValueError, match="axes.delta: values must be numbers"):
            SweepConfig.from_json(small_config(axes=[["delta", values]]))


def test_config_validation_messages():
    with pytest.raises(ValueError, match="not a model or bath parameter"):
        SweepConfig.from_json(small_config(axes=[["bogus", [1.0]]]))
    with pytest.raises(ValueError, match="duplicate axis"):
        SweepConfig.from_json(small_config(axes=[["delta", [0.1]], ["delta", [0.2]]]))
    with pytest.raises(ValueError, match="already an axis"):
        SweepConfig.from_json(small_config(coupled={"delta": "delta + 1"}))
    with pytest.raises(ValueError, match="unknown name"):
        SweepConfig.from_json(small_config(coupled={"J34": "__import__('os')"}))
    with pytest.raises(ValueError, match="unknown metric"):
        SweepConfig.from_json(small_config(outputs=["K_f"]))
    with pytest.raises(ValueError, match="outputs.R: duplicate output"):
        SweepConfig.from_json(small_config(outputs=["R", "J_f", "R"]))
    with pytest.raises(ValueError, match="unknown config fields"):
        SweepConfig.from_json(small_config(extra_block={}))
    with pytest.raises(ValueError, match="bath"):
        SweepConfig.from_json(small_config(bath={"mode": "spin", "flux": 1.0}))
    with pytest.raises(ValueError, match="axes.h: Diode does not take h"):
        SweepConfig.from_json(small_config(axes=[["h", [1.0]]]))
    with pytest.raises(ValueError, match="coupled.h: Diode does not take h"):
        SweepConfig.from_json(small_config(coupled={"h": "Delta"}))
    for site in (0, 7):
        with pytest.raises(ValueError, match=f"axes.local_field_{site}: site out of range for 6 sites"):
            SweepConfig.from_json(small_config(axes=[[f"local_field_{site}", [1.0]]]))


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("mode", list(_MODES))
def test_sweep_names_are_refused_exactly_when_the_point_would_be(variant, mode):
    """A single-axis sweep is refused at config time iff its point's ModelSpec or BathConfig raises."""
    template = ModelSpec(variant=variant)
    n = template.n_sites
    for name in sorted(_KNOBS | _BATH_FIELDS) + [f"local_field_{k}" for k in range(9)]:
        try:
            if name in _BATH_FIELDS:
                BathConfig(mode=mode, **{name: 2.0})
            elif name in _KNOBS:
                template.replace(**{name: 2.0})
            else:  # site k carries the field: outside 1..n the tuple has the wrong length
                k = int(name.removeprefix("local_field_"))
                template.replace(local_fields=[0.0] * (k - 1) + [2.0] + [0.0] * (n - k))
            point_raises = False
        except ValueError:
            point_raises = True
        try:
            SweepConfig(model=template, axes=((name, (2.0,)),), bath=BathConfig(mode=mode))
            config_raises = False
        except ValueError:
            config_raises = True
        assert config_raises == point_raises, (variant, mode, name)


def test_digest_is_stable_and_sensitive():
    a = SweepConfig.from_json(small_config())
    b = SweepConfig.from_json(small_config())
    c = SweepConfig.from_json(small_config(axes=[["Delta", [5.0]], ["delta", [0.01, 0.2]]]))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_derived_output_lists():
    from spindiode.sweep import _DEFAULT_OUTPUTS, _KNOWN_OUTPUTS

    diode = ["J_f", "J_r", "R", "C", "continuity_f", "continuity_r"]
    assert _KNOWN_OUTPUTS == {
        "spin": diode + ["F_psi_minus_34_r", "F_psi_plus_34_r", "concurrence_34_r"],
        "fermion": diode,
        "heat": ["K_f", "K_r", "R_Q", "balance_f", "balance_r"],
    }
    assert _DEFAULT_OUTPUTS == {"spin": diode[:4], "fermion": diode[:4], "heat": ["K_f", "K_r", "R_Q"]}
    assert SweepConfig.from_json(small_config(bath={"mode": "fermion"})).outputs == tuple(diode[:4])


@pytest.mark.parametrize(
    "bath, match",
    [
        ({"mode": "fermion", "T": 100}, "bath.T: fermion mode does not read it"),
        ({"mode": "spin", "secular_cutoff": 3}, "bath.secular_cutoff: spin mode does not read it"),
        ({"mode": "spin", "T_H": -5}, "bath.T_H: spin mode does not read it"),
        ({"mode": "heat", "T": 1}, "bath.T: heat mode does not read it"),
        ({"mode": "heat", "T_H": 5, "dT": 10}, "both set the hot temperature"),
    ],
)
def test_bath_fields_the_mode_does_not_read_are_refused(bath, match):
    with pytest.raises(ValueError, match=match):
        BathConfig(**bath)
    # a field at its default is no setting, whatever the mode
    BathConfig(mode=bath["mode"], T=None, T_C=0.1, T_H=10.1, dT=None, secular_cutoff=0.0)


def test_sweeps_over_unread_bath_fields_are_refused():
    with pytest.raises(ValueError, match="axes.T: fermion mode does not read bath.T"):
        SweepConfig.from_json(small_config(bath={"mode": "fermion"}, axes=[["T", [100.0]]], coupled={}))
    with pytest.raises(ValueError, match="coupled.T_H: spin mode does not read bath.T_H"):
        SweepConfig.from_json(small_config(coupled={"T_H": "Delta + 1"}))
    heat = {"model": {"variant": "Heat_HQ"}, "bath": {"mode": "heat"}}
    clashes = [
        ([["T_H", [5.0]]], {"dT": 1.0}),
        ([["T_H", [5.0]], ["dT", [1.0]]], {}),
        ([["dT", [1.0]]], {"T_H": 5.0}),
    ]
    for axes, bath in clashes:
        with pytest.raises(ValueError, match="both set the hot temperature"):
            SweepConfig.from_json(json.dumps(dict(heat, axes=axes, bath=dict(heat["bath"], **bath))))


def test_hot_temperature_from_dT():
    bath = BathConfig(mode="heat", T_C=0.5, dT=3.0)
    assert bath.hot_temperature == pytest.approx(3.5)
    assert BathConfig(mode="heat", T_C=0.5, T_H=7.0).hot_temperature == pytest.approx(7.0)


def test_run_sweep_rows_and_coupling():
    cfg = SweepConfig.from_json(small_config())
    table = run_sweep(cfg)
    assert table.header == ["Delta", "delta", "J34", "J_f", "J_r", "R", "C", "error"]
    assert len(table.rows) == 2
    # coupled J34 follows the critical line of the template Delta = 5
    assert table.column("J34") == [-6.3, -6.3]
    assert all(err == "" for err in table.column("error"))
    r = table.column("R")
    assert r[0] > 1e4 and r[1] > 1e2
    assert table.provenance["config_sha256"] == cfg.digest()


def test_failed_points_are_recorded_not_dropped():
    # delta = 0 leaves a degenerate steady state, which the solver refuses
    cfg = SweepConfig.from_json(small_config(axes=[["Delta", [5.0]], ["delta", [0.0, 0.1]]]))
    table = run_sweep(cfg)
    assert len(table.rows) == 2
    errs = table.column("error")
    assert "RuntimeError" in errs[0]
    assert errs[1] == ""
    assert math.isnan(table.column("R")[0])
    assert table.column("R")[1] > 1e2


def test_non_finite_points_land_in_the_error_column():
    cfg = SweepConfig.from_json(
        small_config(axes=[["Delta", [float("nan"), 5.0]], ["gamma", [float("inf"), 1.0]]], coupled={})
    )
    errs = run_sweep(cfg).column("error")
    assert errs[0] == "ValueError: Delta must be finite, got nan"
    assert errs[2].startswith("ValueError: gamma must be finite")
    assert errs[3] == ""


def test_non_finite_bath_temperature_lands_in_the_error_column():
    heat = {
        "model": {"variant": "Heat_HQ", "delta": 0.01, "h": 5.0, "J34": 6.3},
        "axes": [["T_C", [float("nan"), 0.1]]],
        "bath": {"mode": "heat", "T_H": 5.1},
    }
    errs = run_sweep(SweepConfig.from_json(json.dumps(heat))).column("error")
    assert errs[0] == "ValueError: temperature must be finite and positive, got nan"
    assert errs[1] == ""


def test_failed_factorization_lands_in_the_error_column():
    (row,) = run_sweep(SweepConfig.from_json(small_config(axes=[["gamma", [0.0]]], coupled={}))).rows
    assert all(math.isnan(v) for v in row[1:-1])
    assert row[-1].startswith("RuntimeError: trace-constrained system (924 x 924 block) is singular")
    assert row[-1].endswith("use steady_states() instead")


def test_worker_pool_matches_serial():
    cfg = SweepConfig.from_json(small_config())
    serial = run_sweep(cfg)
    par = run_sweep(SweepConfig.from_json(small_config(workers=2)))
    assert serial.header == par.header
    for a, b in zip(serial.rows, par.rows):
        assert a == b


def test_export_roundtrip_json(tmp_path):
    cfg = SweepConfig.from_json(small_config(axes=[["Delta", [5.0]], ["delta", [0.0, 0.01]]]))
    table = run_sweep(cfg)
    path = export(table, "json", tmp_path / "t.json")
    back = SweepTable.from_json(path.read_text())
    assert back.header == table.header
    for a, b in zip(back.rows, table.rows):
        for x, y in zip(a, b):
            if isinstance(y, float) and math.isnan(y):
                assert math.isnan(x)  # nan serializes as null without a flag
            else:
                assert x == y
    assert back.provenance == table.provenance


def test_json_roundtrip_keeps_non_finite_and_tiny_values(tmp_path):
    header = ["pos", "neg", "nan", "tiny", "error"]
    table = SweepTable(header=header, rows=[[math.inf, -math.inf, math.nan, 1e-300, "ValueError: bad"]],
                       provenance={"version": "x"})
    (row,) = SweepTable.from_json(export(table, "json", tmp_path / "t.json").read_text()).rows
    assert row[:2] == [math.inf, -math.inf] and math.isnan(row[2])
    assert row[3:] == [1e-300, "ValueError: bad"]
    # files that flag only "<col>_infinite": true keep reading +inf
    old = {"header": ["R"], "rows": [{"R": None, "R_infinite": True}], "provenance": {}}
    assert SweepTable.from_json(json.dumps(old)).rows == [[math.inf]]


def test_export_csv_and_inf(tmp_path):
    cfg = SweepConfig.from_json(small_config())
    table = run_sweep(cfg)
    table.rows[0][table.header.index("R")] = math.inf
    p = export(table, "csv", tmp_path / "t.csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "Delta,delta,J34,J_f,J_r,R,C,error"
    assert "inf" in lines[1].split(",")
    with pytest.raises(ValueError):
        export(SweepTable(header=["a"], rows=[], provenance={}), "csv", tmp_path / "e.csv")
    with pytest.raises(ValueError):
        export(table, "parquet", tmp_path / "t.parquet")
    # json keeps inf as a flagged null and the roundtrip restores it
    jp = export(table, "json", tmp_path / "t2.json")
    doc = json.loads(jp.read_text())
    assert doc["rows"][0]["R"] is None and doc["rows"][0]["R_infinite"] is True
    back = SweepTable.from_json(jp.read_text())
    assert back.column("R")[0] == math.inf


def test_entanglement_outputs():
    doc = {
        "model": {"variant": "Diode", "Delta": 5.0, "delta": 0.1, "J34": -6.3},
        "axes": [["delta", [0.1]]],
        "outputs": ["R", "F_psi_minus_34_r", "concurrence_34_r"],
    }
    table = run_sweep(SweepConfig.from_json(json.dumps(doc)))
    row = dict(zip(table.header, table.rows[0]))
    assert row["F_psi_minus_34_r"] > 0.9
    assert row["concurrence_34_r"] > 0.8


def test_fermion_and_heat_rows_match_library():
    fermion = {
        "model": TUNED,
        "axes": [["delta", [0.03]]],
        "bath": {"mode": "fermion", "gamma": 0.7},
        "outputs": ["J_f", "J_r", "R", "C", "continuity_f", "continuity_r"],
    }
    row = run_sweep(SweepConfig.from_json(json.dumps(fermion))).rows[0]
    m = fermionic_current_metrics(ModelSpec.from_json(json.dumps(TUNED)), gamma=0.7)
    assert row == [0.03, m.J_f, m.J_r, m.R, m.C, m.continuity[0], m.continuity[1], ""]

    heat_model = {"variant": "Heat_HQ", "delta": 0.01, "h": 5.0, "J34": 6.3}
    heat = {
        "model": heat_model,
        "axes": [["h", [5.0]]],
        "bath": {"mode": "heat", "T_C": 0.1, "T_H": 5.1},
        "outputs": ["K_f", "K_r", "R_Q", "balance_f", "balance_r"],
    }
    row = run_sweep(SweepConfig.from_json(json.dumps(heat))).rows[0]
    h = evaluate_heat_diode(ModelSpec.from_json(json.dumps(heat_model)), T_C=0.1, T_H=5.1)
    assert row == [5.0, h.K_f, h.K_r, h.R_Q, h.balance[0], h.balance[1], ""]


def test_cli_sweep_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config())
    out_path = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out_path), "--format", "csv"])
    assert rc == 0
    assert "2 rows (0 failed)" in capsys.readouterr().out
    assert out_path.read_text().startswith("Delta,delta,J34,")


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    rc = main(["sweep", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err
    # a path longer than any file name (ENAMETOOLONG) is missing too, not a runtime error
    long_path = str(tmp_path / ("a" * 300))
    for argv in (["sweep", "--config", long_path, "--out", str(tmp_path / "o.csv")],
                 ["steady", "--model", long_path, "--bias", "forward"]):
        assert main(argv) == 2
        assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{\"axes\": []}")
    rc = main(["sweep", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "invalid sweep config" in capsys.readouterr().err

    # every point fails (degenerate manifold) -> runtime exit code
    all_fail = tmp_path / "fail.json"
    all_fail.write_text(small_config(axes=[["Delta", [5.0]], ["delta", [0.0]]]))
    rc = main(["sweep", "--config", str(all_fail), "--out", str(tmp_path / "o.csv")])
    assert rc == 1

    rc = main(["figure", "nosuchfigure", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err

    # bad counts are config errors, caught before any output is written
    fig_dir = tmp_path / "fig"
    for flags in (["--points", "0"], ["--points", "-2"], ["--workers", "0"]):
        rc = main(["figure", "fig2c", "--out", str(fig_dir), *flags])
        assert rc == 2
        assert "positive integer" in capsys.readouterr().err
    rc = main(["sweep", "--config", str(all_fail), "--out", str(tmp_path / "o.csv"), "--workers", "0"])
    assert rc == 2
    assert "positive integer" in capsys.readouterr().err
    not_a_count = tmp_path / "not_a_count.json"
    for workers in (2.5, True):
        not_a_count.write_text(small_config(workers=workers))
        rc = main(["sweep", "--config", str(not_a_count), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "positive integer" in capsys.readouterr().err
    # a descriptor without its sample count is refused, not expanded to numpy's default 50
    short = tmp_path / "short.json"
    for kind in ("linspace", "logspace"):
        short.write_text(small_config(axes=[["Delta", [5.0]], ["delta", {kind: [0.01, 0.1]}]]))
        rc = main(["sweep", "--config", str(short), "--out", str(tmp_path / "short.csv")])
        assert rc == 2
        assert f"{kind} takes [start, stop, num]" in capsys.readouterr().err
    assert not (tmp_path / "short.csv").exists()
    for env in ("-4", "zero"):
        monkeypatch.setenv("SPINDIODE_WORKERS", env)
        rc = main(["figure", "fig2c", "--out", str(fig_dir)])
        assert rc == 2
        assert "SPINDIODE_WORKERS" in capsys.readouterr().err
    assert not fig_dir.exists()

    # a bath field the mode ignores is a config error, not a silent default row
    unread = tmp_path / "unread.json"
    unread.write_text(small_config(bath={"mode": "fermion", "T": 100.0}))
    rc = main(["sweep", "--config", str(unread), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "fermion mode does not read it" in capsys.readouterr().err

    # a knob the variant does not take, or a site it lacks, is refused before any output
    refused = [{"axes": [["h", [1.0]]]}, {"coupled": {"h": "Delta"}},
               {"axes": [["local_field_0", [1.0]]]}, {"axes": [["local_field_7", [1.0]]]}]
    for overrides in refused:
        cfg = tmp_path / "refused.json"
        cfg.write_text(small_config(**overrides))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "refused.csv")])
        assert rc == 2
        assert "invalid sweep config" in capsys.readouterr().err
    assert not (tmp_path / "refused.csv").exists()

    # axes and coupled in each other's shape are refused by name
    for overrides, field in [({"coupled": [["J34", "critical_j34(Delta)"]]}, "coupled"),
                             ({"axes": {"Delta": [5.0], "delta": [0.01]}}, "axes")]:
        cfg = tmp_path / "shape.json"
        cfg.write_text(small_config(**overrides))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "shape.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid sweep config" in err and f"{field} must be" in err
    assert not (tmp_path / "shape.csv").exists()

    # JSON true and strings are refused wherever a number is read, not taken as 1.0 or parsed
    for value in (True, "5"):
        not_numbers = [
            ({"model": {**TUNED, "Delta": value}}, "Delta"),
            ({"model": {**TUNED, "local_fields": [value] + [0.0] * 5}}, "local_fields"),
            ({"bath": {"gamma": value}}, "bath.gamma"),
            ({"axes": [["Delta", [value, 2.0]]]}, "axes.Delta"),
            ({"axes": [["Delta", {"linspace": [value, 2.0, 3]}]]}, "axes.Delta"),
        ]
        for overrides, field in not_numbers:
            cfg = tmp_path / "not_a_number.json"
            cfg.write_text(small_config(**overrides))
            rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "not_a_number.csv")])
            assert rc == 2
            err = capsys.readouterr().err
            assert "invalid sweep config" in err and field in err and "must be" in err and "number" in err
        assert not (tmp_path / "not_a_number.csv").exists()
        rc = main(["steady", "--model", json.dumps({**TUNED, "Delta": value}), "--bias", "forward"])
        assert rc == 2
        assert "invalid model: Delta must be a number" in capsys.readouterr().err

    # a bad bath coupling is refused before any solve
    model = json.dumps(TUNED)
    for gamma in ("-1", "nan", "inf"):
        rc = main(["steady", "--model", model, "--bias", "forward", "--gamma", gamma])
        assert rc == 2
        assert "--gamma must be finite and >= 0" in capsys.readouterr().err


def test_cli_steady_json(tmp_path, capsys):
    spec = ModelSpec(variant=Variant.DIODE, Delta=5.0, delta=0.01, J34=-6.3)
    rc = main(["steady", "--model", spec.to_json(), "--bias", "forward"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "Diode"
    assert doc["hot_site"] == 1 and doc["cold_site"] == 6
    assert doc["J"] == pytest.approx(2.923092e-02, rel=1e-4)
    assert doc["continuity"] < 1e-8
    assert len(doc["magnetization"]) == 6

    # the CLI solves one bias exactly as evaluate_diode solves both
    m = evaluate_diode(spec)
    assert doc["J"] == m.J_f and doc["continuity"] == m.continuity[0]
    rc = main(["steady", "--model", spec.to_json(), "--bias", "reverse"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hot_site"] == 6 and doc["cold_site"] == 1
    assert doc["J"] == m.J_r and doc["continuity"] == m.continuity[1]

    model_file = tmp_path / "model.json"
    model_file.write_text(spec.to_json())
    rc = main(["steady", "--model", str(model_file), "--bias", "reverse"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == doc

    # an inline document longer than a file name may be is read as JSON, not tried as a path
    fields = spec.replace(local_fields=(0.125, -0.0625, 0.03125, -0.015625, 0.0078125, -0.00390625))
    assert len(fields.to_json()) > 255
    rc = main(["steady", "--model", fields.to_json(), "--bias", "forward"])
    assert rc == 0
    inline = capsys.readouterr().out
    model_file.write_text(fields.to_json())
    rc = main(["steady", "--model", str(model_file), "--bias", "forward"])
    assert rc == 0
    assert capsys.readouterr().out == inline

    rc = main(["steady", "--model", "{\"variant\": \"NoSuch\"}", "--bias", "forward"])
    assert rc == 2
    assert "invalid model" in capsys.readouterr().err

    # delta = 0 leaves a degenerate steady state: a runtime failure, not a config error
    rc = main(["steady", "--model", "{\"variant\": \"Diode\"}", "--bias", "forward"])
    assert rc == 1
    assert "runtime error: RuntimeError" in capsys.readouterr().err


def test_cli_figure_writes_the_preset_tables(tmp_path, capsys):
    rc = main(["figure", "fig4bc", "--out", str(tmp_path / "cli")])
    assert rc == 0
    assert "fig4bc_profiles.csv" in capsys.readouterr().out
    (table,) = run_preset("fig4bc").values()
    export(table, "csv", tmp_path / "library.csv")
    assert (tmp_path / "cli" / "fig4bc_profiles.csv").read_text() == (tmp_path / "library.csv").read_text()


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required --config/--out
    assert exc.value.code == 2


def test_default_workers_env(monkeypatch):
    from spindiode.sweep import default_workers

    monkeypatch.delenv("SPINDIODE_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("SPINDIODE_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("SPINDIODE_WORKERS", "zero")
    with pytest.raises(ValueError):
        default_workers()
    for env in ("0", "-4"):
        monkeypatch.setenv("SPINDIODE_WORKERS", env)
        with pytest.raises(ValueError, match="positive integer"):
            default_workers()

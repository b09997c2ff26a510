"""Command-line surface: config parsing, exit codes, CSV contract."""

import json

import numpy as np
import pytest

from zenosim.cli import main

OMEGA = 0.2 * np.sqrt(2.0)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def base_config(tmp_path, **overrides):
    doc = {
        "model": {"kind": "two_level"},
        "run": {"t_final": 2.0, "sample_dt": 0.25},
        "interventions": [{"time": 1.0, "kind": "measure"}],
        "output": {"path": str(tmp_path / "out.csv")},
    }
    doc.update(overrides)
    return doc


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n  oops', encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["predict", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_nonpositive_sample_dt_exits_3(tmp_path, capsys):
    doc = base_config(tmp_path, run={"t_final": 2.0, "sample_dt": -0.1})
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    assert "run.sample_dt" in capsys.readouterr().err


def test_unknown_model_key_exits_3(tmp_path, capsys):
    doc = base_config(tmp_path)
    doc["model"]["extra"] = 1
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    assert "model.extra" in capsys.readouterr().err


def test_unknown_model_kind_exits_3(tmp_path, capsys):
    doc = base_config(tmp_path, model={"kind": "three_level"})
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    assert "model.kind" in capsys.readouterr().err


def test_unknown_intervention_kind_exits_3(tmp_path, capsys):
    doc = base_config(tmp_path, interventions=[{"time": 1.0, "kind": "reset"}])
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    assert "interventions[0].kind" in capsys.readouterr().err


def test_boolean_is_not_a_number(tmp_path, capsys):
    doc = base_config(tmp_path, run={"t_final": True, "sample_dt": 0.25})
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    assert "run.t_final" in capsys.readouterr().err


def test_missing_output_path_exits_3(tmp_path, capsys):
    doc = base_config(tmp_path)
    del doc["output"]
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    assert "output.path" in capsys.readouterr().err


def test_missing_run_section_exits_3(tmp_path, capsys):
    doc = base_config(tmp_path)
    del doc["run"]
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    assert "run section" in capsys.readouterr().err


def test_custom_continuum_requires_all_fields(tmp_path, capsys):
    doc = base_config(tmp_path, model={"kind": "custom_continuum", "v": 0.01})
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert "model.d" in err and "model.n_levels" in err and "model.spacing" in err


def test_simulate_writes_expected_csv(tmp_path):
    doc = base_config(tmp_path)
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]
    )
    assert code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "t,rho_00,rho_11,sigma,re_10,im_10,trace,purity,energy,event"
    assert not any(line.endswith(",") for line in lines)
    # 9 grid samples plus the pre-measurement row at the tied instant
    assert len(lines) == 1 + 10
    rows = [line.split(",") for line in lines[1:]]
    tied = [r for r in rows if float(r[0]) == 1.0]
    assert [r[-1] for r in tied] == ["pre_measure", "post_measure"]
    # every pre-measurement sample matches the closed form after round-trip
    for r in rows:
        t = float(r[0])
        if t <= 1.0 and r[-1] != "post_measure":
            want = 1.0 - 0.5 * np.sin(OMEGA * t) ** 2
            assert float(r[1]) == pytest.approx(want, abs=1e-14)
    # %.17g round-trips float64 exactly: column consistency check
    for r in rows:
        assert float(r[1]) + float(r[2]) == pytest.approx(float(r[6]), abs=1e-15)


def test_simulate_without_interventions_tags_none(tmp_path):
    doc = base_config(tmp_path, interventions=[])
    out = tmp_path / "free.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert all(line.split(",")[-1] == "none" for line in lines[1:])
    assert len(lines) == 1 + 9


def test_simulate_falls_back_to_config_output_path(tmp_path):
    doc = base_config(tmp_path)
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    assert (tmp_path / "out.csv").exists()


def test_predict_two_level(tmp_path, capsys):
    doc = {"model": {"kind": "two_level"}}
    assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["t_min", "3.5355339059327373"]
    assert float(lines[1].split()[1]) == pytest.approx(-0.4714045207910317, abs=1e-15)


def test_predict_band_model(tmp_path, capsys):
    doc = {"model": {"kind": "level_in_continuum"}}
    assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split()[1]) == pytest.approx(0.48988570156718186, abs=1e-15)
    assert float(lines[1].split()[1]) == pytest.approx(-0.6531809354229091, abs=1e-15)


def test_predict_zero_coupling_gives_zero_dip(tmp_path, capsys):
    doc = {"model": {"kind": "two_level", "v": 0.0}}
    assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[1].split()[1]) == 0.0


def test_predict_along_trajectory(tmp_path, capsys):
    doc = base_config(tmp_path, interventions=[])
    out = tmp_path / "traj.csv"
    main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
    capsys.readouterr()
    cfg = write_config(tmp_path, {"model": {"kind": "two_level"}}, name="model.json")
    assert main(["predict", "--config", cfg, "--trajectory", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "t,t_min,sigma_min"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 9
    # population offsets only rescale: the predicted time never moves
    assert {r[1] for r in rows} == {"3.5355339059327373"}
    assert float(rows[0][2]) == pytest.approx(-0.4714045207910317, abs=1e-15)
    # shallower dip predicted once population has partly transferred
    assert abs(float(rows[4][2])) < abs(float(rows[0][2]))


def test_predict_trajectory_dimension_mismatch(tmp_path, capsys):
    doc = base_config(tmp_path, interventions=[])
    out = tmp_path / "traj.csv"
    main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
    cfg = write_config(
        tmp_path, {"model": {"kind": "level_in_continuum"}}, name="band.json"
    )
    assert main(["predict", "--config", cfg, "--trajectory", str(out)]) == 3
    assert "levels" in capsys.readouterr().err


def test_reproduce_unknown_figure_exits_4(tmp_path, capsys):
    assert main(["reproduce", "--figure", "fig99", "--out-dir", str(tmp_path)]) == 4
    assert "fig99" in capsys.readouterr().err


def test_reproduce_first_figure(tmp_path, capsys):
    out_dir = tmp_path / "f1"
    assert main(["reproduce", "--figure", "fig1", "--out-dir", str(out_dir)]) == 0
    listed = capsys.readouterr().out.split()
    assert sorted(listed) == sorted(
        ["fig1_exact.csv", "fig1_dephase_t1.csv", "fig1_perturbative.csv", "fig1.gp"]
    )
    for name in listed:
        assert (out_dir / name).exists()
    script = (out_dir / "fig1.gp").read_text(encoding="utf-8")
    assert "set datafile separator ','" in script
    assert "fig1_exact.csv" in script


def test_reproduce_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["reproduce", "--figure", "fig1", "--out-dir", str(a)])
    main(["reproduce", "--figure", "fig1", "--out-dir", str(b)])
    for name in ["fig1_exact.csv", "fig1_dephase_t1.csv", "fig1_perturbative.csv", "fig1.gp"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize(
    "section, values, field",
    [
        ("model", {"kind": "two_level", "eps0": float("inf")}, "eps0"),
        ("model", {"kind": "two_level", "eps1": float("nan")}, "eps1"),
        ("model", {"kind": "level_in_continuum", "d": float("inf")}, "d must"),
        ("model", {"kind": "level_in_continuum", "spacing": float("inf")}, "spacing"),
        ("run", {"t_final": float("inf"), "sample_dt": 0.25}, "t_final"),
        ("run", {"t_final": 1e300, "sample_dt": 1e-300}, "sample_dt"),
    ],
)
def test_non_finite_inputs_exit_3(tmp_path, capsys, section, values, field):
    doc = base_config(tmp_path, **{section: values})
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_reproduce_write_failure_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out_dir = blocker / "sub"
    assert main(["reproduce", "--figure", "fig2", "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "cannot write" in err and str(out_dir) in err

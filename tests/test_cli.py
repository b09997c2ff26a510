"""Command-line surface: config parsing, exit codes, CSV contract."""

import contextlib
import copy
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "text",
    [
        '{"model": {"kind": "two_level", "v": 1' + "0" * 5000 + "}}",
        '{"model": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["huge-integer", "deep-nesting"],
)
def test_unparsable_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["predict", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config parse error" in err and "Traceback" not in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"model": "\xff"}')
    assert main(["predict", "--config", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


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


def test_predict_trajectory_rejects_a_nan_population(tmp_path, capsys):
    doc = base_config(tmp_path, interventions=[])
    out = tmp_path / "traj.csv"
    main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    row = lines[3].split(",")
    row[lines[0].split(",").index("rho_00")] = "nan"
    lines[3] = ",".join(row)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    cfg = write_config(tmp_path, {"model": {"kind": "two_level"}}, name="model.json")
    assert main(["predict", "--config", cfg, "--trajectory", str(out)]) == 3
    captured = capsys.readouterr()
    assert "delta_rho" in captured.err and "Traceback" not in captured.err
    assert "nan" not in captured.out
    assert captured.out == ""  # not even the rows before the bad one


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
        ("run", {"t_final": 1e300, "sample_dt": 1e280}, "run.sample_dt"),
        (
            "model",
            {"kind": "custom_continuum", "eps0": 0.0, "d": 5.0,
             "n_levels": 3_000_000_000, "spacing": 0.05, "v": 0.01},
            "model.n_levels",
        ),
        ("model", {"kind": "level_in_continuum", "spacing": 10**400}, "model.spacing"),
        ("interventions", [{"time": 2.0, "kind": "measure"}], "interventions[0].time"),
        ("interventions", [{"time": 1.0, "kind": "sign_flip", "target": 5}],
         "interventions[0].target"),
        ("output", {"coherence_pairs": [[0, 7]]}, "output.coherence_pairs"),
        ("model", {"kind": "two_level", "v": 0.0}, "model.v"),
        ("model", {"kind": "two_level", "v": -0.1}, "model.v"),
        ("model", {"kind": "two_level", "eps0": 1e300}, "model.eps0"),
        ("model", {"kind": "two_level", "d": 5.0}, "model.d"),
        ("model", {"kind": "custom_continuum", "eps0": 0.0, "d": 1.0, "n_levels": 50,
                   "spacing": 0.1, "v": 0.01}, "model.spacing"),
        ("model", {"kind": "level_in_continuum", "n_levels": 1}, "model.n_levels"),
        ("model", {"kind": "level_in_continuum", "n_levels": 2.5}, "model.n_levels"),
    ],
)
def test_non_finite_inputs_exit_3(tmp_path, capsys, section, values, field):
    """Bad values exit 3 with a problem that starts with its dotted config path."""
    path = field if field.startswith(section) else f"{section}.{field}"
    doc = base_config(tmp_path, **{section: values})
    config = write_config(tmp_path, doc)
    for command in ("simulate", "predict"):
        assert main([command, "--config", config]) == 3
        err = capsys.readouterr().err
        assert f"invalid config: {path} " in err or f"; {path} " in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "t_final, sample_dt",
    [(1e20, 100_000_000_000_000_000), (1e300, 10**299)],
    ids=["int64", "beyond-int64"],
)
def test_integer_sample_dt_matches_float(tmp_path, t_final, sample_dt):
    """A JSON integer gives the same time grid as the equal float."""
    outputs = []
    for name, dt in (("int", sample_dt), ("float", float(sample_dt))):
        doc = base_config(tmp_path, run={"t_final": t_final, "sample_dt": dt}, interventions=[])
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_reproduce_write_failure_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out_dir = blocker / "sub"
    assert main(["reproduce", "--figure", "fig2", "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "cannot write" in err and str(out_dir) in err


# what a fuzzed field may hold in place of a good value: bad numbers, wrong
# JSON types, out-of-range targets and pairs, unknown kinds, or nothing
_ABSENT = object()
_BAD = [
    float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e300, 3_000_000_000, 10**400,
    2.5, 5, None, True, "1", [], {}, [[0, 7]], [[0, 0]], [[0, 1, 2]], "reset", _ABSENT,
]
_FIELDS = {
    "model": ["kind", "v", "eps0", "eps1", "d", "n_levels", "spacing", "extra"],
    "run": ["t_final", "sample_dt", "extra"],
    "interventions": ["time", "kind", "target", "extra"],
    "output": ["path", "coherence_pairs", "extra"],
}
# a dotted config path, or a whole section that is missing or of the wrong type
_CONFIG_PATH = re.compile(r"\b(model|run|interventions|output)(\.\w|\[\d+\]| must| section)")


@st.composite
def config_documents(draw):
    """A valid config of a few hundred rows at most, then up to three faults."""
    kind = draw(st.sampled_from(
        ["two_level", "level_in_continuum", "level_outside_continuum", "custom_continuum"]
    ))
    model = {"kind": kind, "v": draw(st.sampled_from([0.2, 0.01])), "eps0": 0.0}
    if kind == "two_level":
        model["eps1"] = 0.2
    else:
        model.update(d=5.0, n_levels=draw(st.sampled_from([2, 4, 8])), spacing=0.05)
    times = sorted(draw(st.sets(st.sampled_from([0.25, 0.5, 0.75]), max_size=3)))
    doc = {
        "model": model,
        "run": {"t_final": 1.0, "sample_dt": draw(st.sampled_from([0.25, 0.01]))},
        "interventions": [
            {"time": t, "kind": draw(st.sampled_from(["measure", "sign_flip"])),
             "target": draw(st.sampled_from([0, 1]))}
            for t in times
        ],
        "output": {"path": "out.csv"},
    }
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sorted(_FIELDS)))
        value = draw(st.sampled_from(_BAD))
        if isinstance(value, (list, dict)):
            value = copy.deepcopy(value)  # never share a container between fields
        if draw(st.integers(0, 4)) == 0:  # the whole section
            doc[section] = value
            continue
        targets = doc.get(section)
        if isinstance(targets, dict):
            targets = [targets]
        if not isinstance(targets, list) or not targets:
            continue
        obj = draw(st.sampled_from(targets))
        if isinstance(obj, dict):
            obj[draw(st.sampled_from(_FIELDS[section]))] = value
    model = doc.get("model")
    named_band = ("level_in_continuum", "level_outside_continuum")
    if isinstance(model, dict) and model.get("kind") in named_band:
        if model.get("n_levels", _ABSENT) is _ABSENT:
            model["n_levels"] = 8  # the 200-level default would run slowly
    return _strip(doc)


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if v is not _ABSENT}
    if isinstance(value, list):
        return [_strip(v) for v in value if v is not _ABSENT]
    return value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=config_documents())
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, doc):
    """Any config runs or fails with a documented code, never a traceback,
    and every validation failure names the config path of its problem."""
    work = tmp_path_factory.mktemp("fuzz")
    if isinstance(doc.get("output"), dict) and "path" in doc["output"]:
        if isinstance(doc["output"]["path"], str):
            doc["output"]["path"] = str(work / doc["output"]["path"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", "--config", write_config(work, doc)])
    err = err.getvalue()
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err
    if code == 3:
        problems = err.removeprefix("error: ").removeprefix("invalid config: ").split("; ")
        for problem in problems:
            assert _CONFIG_PATH.search(problem), err

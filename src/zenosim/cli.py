"""Command-line frontend.

Three subcommands:

* ``simulate --config <path> --out <path>``: run one scenario from a
  JSON config and write the trajectory CSV.
* ``predict --config <path> [--trajectory <csv>]``: print the dip
  predictor for the configured model's initial state, and optionally
  re-evaluate it along a previously simulated trajectory.
* ``reproduce --figure <id> --out-dir <dir>``: write the canned data
  and gnuplot script for one figure id.

Exit codes: 0 success, 2 config read/parse errors, 3 validation errors
(each problem named by its dotted config path, e.g. run.sample_dt) and
output write failures, 4 unknown figure id. This module checks only the
document's structure (object and list sections, known and non-null keys,
kind names, output.path a string) and passes values on as read, a missing
key as None: every type and value rule of a field, including the limits
of 1000 band levels and 100,000 rows, lives in ModelSpec,
InterventionSchedule and ScenarioSpec. ``predict`` without a run section
builds no ScenarioSpec, so it checks only the structure of the rest.

Config schema (all sections are objects, unknown keys are rejected)::

    {
      "model": {"kind": "two_level" | "level_in_continuum" |
                        "level_outside_continuum" | "custom_continuum",
                "v": 0.2, "eps0": -0.2, "eps1": 0.2,
                "d": 5.0, "n_levels": 200, "spacing": 0.05},
      "run": {"t_final": 6.0, "sample_dt": 0.01},
      "interventions": [{"time": 1.0, "kind": "measure" | "sign_flip",
                         "target": 0}],
      "output": {"path": "out.csv", "coherence_pairs": [[1, 0]]}
    }

Per-kind defaults fill in omitted model keys; ``custom_continuum``
requires them all. ``output.path`` is used when ``--out`` is absent.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys

import numpy as np

from . import figures
from .core import ParameterError, ValidationError, ZenosimError
from .csvio import format_value, read_population_table, write_trajectory_csv
from .interventions import Intervention, InterventionKind, InterventionSchedule
from .models import ModelKind, ModelSpec
from .perturbation import channel_inputs, sigma_min_predictor
from .scenario import ScenarioSpec, run

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNKNOWN_FIGURE = 4


class _ConfigError(Exception):
    """Carries the exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


_RUN_KEYS = {"t_final", "sample_dt"}
_INTERVENTION_KEYS = {"time", "kind", "target"}
_OUTPUT_KEYS = {"path", "coherence_pairs"}
_TOP_KEYS = {"model", "run", "interventions", "output"}

# each kind's model keys with the defaults of its ModelSpec factory, which
# bears the kind's name (None where the factory has no default)
_MODEL_DEFAULTS = {
    kind: {
        name: None if p.default is p.empty else p.default
        for name, p in inspect.signature(getattr(ModelSpec, kind.value)).parameters.items()
    }
    for kind in ModelKind
}
_MODEL_KEYS = {"kind"}.union(*_MODEL_DEFAULTS.values())

# library field roots renamed to the config sections they are read from
_CONFIG_ROOT = {
    "t_final": "run.t_final",
    "sample_dt": "run.sample_dt",
    "schedule": "interventions",
    "coherence_pairs": "output.coherence_pairs",
}


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _ConfigError(EXIT_VALIDATION, f"{path} must be an object")
    return value

def _check_keys(obj: dict, allowed, path: str, problems: list) -> None:
    # the format has no null: a key is either given a value or left out (a
    # null section is reported as not an object or list)
    for key in obj:
        where = f"{path}.{key}" if path else key
        if key not in allowed:
            problems.append(f"unknown key {where}")
        elif path and obj[key] is None:
            problems.append(f"{where} must not be null (give it a value or leave it out)")


def _kind(enum, obj: dict, path: str, problems: list):
    """The member of ``enum`` named by ``obj["kind"]``, or None and a problem
    (which `_check_keys` reports for a null kind)."""
    try:
        return enum(obj["kind"])
    except KeyError:
        problems.append(f"{path}.kind is required")
    except ValueError:
        if obj["kind"] is not None:
            known = ", ".join(k.value for k in enum)
            problems.append(f"{path}.kind: unknown kind {obj['kind']!r} (expected one of {known})")
    return None


def _spec_problems(exc: ZenosimError) -> list:
    """The problems of a library error as ``path text``, in config terms."""
    lines = []
    for name, text in exc.problems:
        root = re.match(r"\w+", name).group()
        lines.append(f"{_CONFIG_ROOT.get(root, root)}{name[len(root):]} {text}")
    return lines


def load_config(path: str) -> dict:
    """Read and parse the JSON document, mapping failures to exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _ConfigError(EXIT_PARSE, f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ConfigError(
            EXIT_PARSE,
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}",
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer over 4300 digits, deep nesting
        raise _ConfigError(EXIT_PARSE, f"config parse error in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _ConfigError(EXIT_VALIDATION, "config root must be an object")
    return doc


def _build_model(doc: dict, problems: list) -> ModelSpec | None:
    if "model" not in doc:
        problems.append("model section is required")
        return None
    model = _require_object(doc["model"], "model")
    _check_keys(model, _MODEL_KEYS, "model", problems)
    kind = _kind(ModelKind, model, "model", problems)
    if kind is None:
        return None
    given = {k: v for k, v in model.items() if k in _MODEL_KEYS and v is not None}
    try:
        return ModelSpec(**{**_MODEL_DEFAULTS[kind], **given, "kind": kind})
    except ParameterError as exc:
        problems.extend(_spec_problems(exc))
        return None


def _build_schedule(doc: dict, problems: list) -> InterventionSchedule:
    raw = doc.get("interventions", [])
    if not isinstance(raw, list):
        problems.append("interventions must be a list")
        return InterventionSchedule()
    items = []
    for i, entry in enumerate(raw):
        path = f"interventions[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{path} must be an object")
            continue
        _check_keys(entry, _INTERVENTION_KEYS, path, problems)
        kind = _kind(InterventionKind, entry, path, problems)
        items.append(Intervention(entry.get("time"), kind, entry.get("target", 0)))
    return InterventionSchedule(tuple(items))


def build_scenario(doc: dict, need_run: bool = True):
    """Check the parsed document's structure and assemble the scenario pieces.

    Returns (model, scenario_or_None, output_path_or_None). The specs are
    built from the known keys even when the structure has problems, and
    both lists are raised together on exit code 3, structure first; a
    spec problem at a path that a structure problem already names is left
    out.
    """
    problems: list = []
    _check_keys(doc, _TOP_KEYS, "", problems)
    model = _build_model(doc, problems)
    run_obj = None
    if "run" in doc:
        run_obj = _require_object(doc["run"], "run")
        _check_keys(run_obj, _RUN_KEYS, "run", problems)
    elif need_run:
        problems.append("run section is required")
    schedule = _build_schedule(doc, problems)
    output = _require_object(doc.get("output", {}), "output")
    _check_keys(output, _OUTPUT_KEYS, "output", problems)
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        problems.append(f"output.path must be a string, got {out_path!r}")

    scenario = None
    if run_obj is not None:
        try:
            timing = run_obj.get("t_final"), run_obj.get("sample_dt")
            scenario = ScenarioSpec(model, *timing, schedule, output.get("coherence_pairs"))
        except ValidationError as exc:
            # a missing model was reported by its section, a null or unknown value at its path
            named = {problem.split(" ")[0].rstrip(":") for problem in problems}
            named.update(("model",) if model is None else ())
            problems += [p for p in _spec_problems(exc) if p.split(" ")[0] not in named]
    if problems:
        raise _ConfigError(EXIT_VALIDATION, "invalid config: " + "; ".join(problems))
    return model, scenario, out_path


def cmd_simulate(config_path: str, out_path: str | None) -> int:
    doc = load_config(config_path)
    _, scenario, cfg_out = build_scenario(doc, need_run=True)
    dest = out_path or cfg_out
    if dest is None:
        raise _ConfigError(
            EXIT_VALIDATION, "output.path (or --out) is required for simulate"
        )
    traj = run(scenario)
    try:
        write_trajectory_csv(traj, dest)
    except OSError as exc:
        raise _ConfigError(EXIT_VALIDATION, f"cannot write {dest}: {exc}") from exc
    return EXIT_OK


def cmd_predict(config_path: str, trajectory_path: str | None) -> int:
    doc = load_config(config_path)
    model, _, _ = build_scenario(doc, need_run=False)
    pops0 = np.zeros(model.dim)
    pops0[0] = 1.0
    t_min, sigma_min = sigma_min_predictor(channel_inputs(model, pops0))
    lines = [f"t_min {format_value(t_min)}", f"sigma_min {format_value(sigma_min)}"]
    if trajectory_path is not None:
        try:
            times, pops = read_population_table(trajectory_path)
        except (OSError, ValidationError) as exc:
            raise _ConfigError(EXIT_PARSE, f"cannot read trajectory: {exc}") from exc
        if pops.shape[1] != model.dim:
            raise _ConfigError(
                EXIT_VALIDATION,
                f"trajectory has {pops.shape[1]} levels, model has {model.dim}",
            )
        lines.append("t,t_min,sigma_min")
        for t, row in zip(times, pops):
            tm, sm = sigma_min_predictor(channel_inputs(model, row))
            lines.append(f"{format_value(t)},{format_value(tm)},{format_value(sm)}")
    print("\n".join(lines))  # nothing is printed unless every row passed
    return EXIT_OK


def cmd_reproduce(figure_id: str, out_dir: str) -> int:
    try:
        files = figures.build_figure(figure_id, out_dir)
    except KeyError:
        known = ", ".join(figures.figure_ids())
        print(f"unknown figure id {figure_id!r}; known ids: {known}", file=sys.stderr)
        return EXIT_UNKNOWN_FIGURE
    except OSError as exc:
        raise _ConfigError(EXIT_VALIDATION, f"cannot write {out_dir}: {exc}") from exc
    for name in files:
        print(name)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zenosim",
        description="Density-matrix dynamics under scheduled dephasing and sign flips",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write the trajectory CSV")
    sim.add_argument("--config", required=True, help="JSON scenario config")
    sim.add_argument("--out", default=None, help="output CSV path (falls back to output.path)")

    pre = sub.add_parser("predict", help="print the dip predictor for a model")
    pre.add_argument("--config", required=True, help="JSON config with a model section")
    pre.add_argument(
        "--trajectory",
        default=None,
        help="trajectory CSV; re-evaluate the predictor along its populations",
    )

    rep = sub.add_parser("reproduce", help="write the data and gnuplot script of a figure")
    rep.add_argument("--figure", required=True, help="figure id, fig1..fig10")
    rep.add_argument("--out-dir", default=".", help="destination directory")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "predict":
            return cmd_predict(args.config, args.trajectory)
        return cmd_reproduce(args.figure, getattr(args, "out_dir"))
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ZenosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())

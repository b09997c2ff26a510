"""Canned scenario bundles: one CSV per curve plus a gnuplot script.

Each figure id maps to a fixed set of deterministic runs. Output is
data plus a plotting script, never rendered images, so results stay
diffable and dependency free. File names are stable across invocations
and runs are bit-reproducible, which makes the outputs byte-identical
on repetition.
"""

from __future__ import annotations

import os

import numpy as np

from .csvio import write_table_csv, write_trajectory_csv
from .interventions import Intervention, InterventionKind, InterventionSchedule
from .models import ModelSpec
from .perturbation import channel_inputs, rho00_perturbative, sigma_min_predictor
from .scenario import ScenarioSpec, run

__all__ = ["FIGURE_DESCRIPTIONS", "figure_ids", "build_figure"]

FIGURE_DESCRIPTIONS = {
    "fig1": "Two-level survival: exact, second-order closed form, and a dephasing event at t=1",
    "fig2": "Two-level coherence components without interventions",
    "fig3": "Two-level survival with a single dephasing event at 5.5, 7.5 or 8.5",
    "fig4": "Two-level Im rho_10 for the fig3 scenarios",
    "fig5": "Band-embedded level: survival with a single dephasing event at 10, 30, 55 or 80",
    "fig6": "Band-embedded level: summed Im coherences under dephasing, with the dip predictor",
    "fig7": "Band-embedded level: survival with a single sign flip at 10, 30, 55 or 80",
    "fig8": "Detuned level above the band: survival with a single dephasing event at 30, 55 or 80",
    "fig9": "Detuned level above the band: survival with a single sign flip at 30, 55 or 80",
    "fig10": "Detuned level above the band: summed Im coherences under dephasing, with the dip predictor",
}


def figure_ids() -> list:
    return list(FIGURE_DESCRIPTIONS)


def _tag(t: float) -> str:
    return f"{t:g}".replace(".", "p").replace("-", "m")


def _one_intervention(kind: InterventionKind, t: float) -> InterventionSchedule:
    return InterventionSchedule((Intervention(time=t, kind=kind, target=0),))


# per-family run parameters
_TWO = dict(model=ModelSpec.two_level(), t_final=12.0, sample_dt=0.01)
_LIC = dict(model=ModelSpec.level_in_continuum(), t_final=120.0, sample_dt=0.05)
_LOC = dict(model=ModelSpec.level_outside_continuum(), t_final=225.0, sample_dt=0.1)

_KIND_LABEL = {InterventionKind.MEASURE: "dephase", InterventionKind.SIGN_FLIP: "flip"}


def _curve_set(fig, base, kind, times, out_dir):
    """Reference run plus one single-intervention run per time.

    Returns (files, labels, trajectories) with the reference first.
    """
    files, labels, trajs = [], [], []
    specs = [ScenarioSpec(**base)]
    names = [f"{fig}_exact.csv"]
    labs = ["no intervention"]
    for t in times:
        specs.append(ScenarioSpec(**base, schedule=_one_intervention(kind, t)))
        names.append(f"{fig}_{_KIND_LABEL[kind]}_t{_tag(t)}.csv")
        labs.append(f"{_KIND_LABEL[kind]} at {t:g}")
    for spec, name, lab in zip(specs, names, labs):
        traj = run(spec)
        path = os.path.join(out_dir, name)
        write_trajectory_csv(traj, path)
        files.append(name)
        labels.append(lab)
        trajs.append(traj)
    return files, labels, trajs


def _predictor_csv(fig, base, reference, out_dir) -> str:
    """Dip predictions along the reference trajectory's populations."""
    model = base["model"]
    tmins, smins = [], []
    for pops in reference.populations[reference.grid]:
        tm, sm = sigma_min_predictor(channel_inputs(model, pops))
        tmins.append(tm)
        smins.append(sm)
    name = f"{fig}_predictor.csv"
    write_table_csv(
        os.path.join(out_dir, name),
        ["t", "t_min", "sigma_min"],
        [reference.grid_times(), tmins, smins],
    )
    return name


def _gnuplot(fig, out_dir, ylabel, plot_clauses):
    lines = [
        f"# {fig}: {FIGURE_DESCRIPTIONS[fig]}",
        "set datafile separator ','",
        "set xlabel 't (a.u.)'",
        f"set ylabel '{ylabel}'",
        "set grid",
        "set key bottom left",
        "plot \\",
    ]
    lines += [
        "  " + clause + (", \\" if i + 1 < len(plot_clauses) else "")
        for i, clause in enumerate(plot_clauses)
    ]
    path = os.path.join(out_dir, f"{fig}.gp")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return f"{fig}.gp"


def _line(fname, using, title, style="with lines"):
    return f"'{fname}' skip 1 using {using} {style} title '{title}'"


def _population_figure(fig, base, kind, times, out_dir):
    files, labels, _ = _curve_set(fig, base, kind, times, out_dir)
    clauses = [_line(f, "1:2", lab) for f, lab in zip(files, labels)]
    files.append(_gnuplot(fig, out_dir, "rho_00", clauses))
    return files


def _sigma_figure(fig, base, times, out_dir):
    # plotted as sum_k Im rho_k0, the negative of the stored sigma column
    files, labels, trajs = _curve_set(fig, base, InterventionKind.MEASURE, times, out_dir)
    sigma_col = base["model"].dim + 2
    clauses = [
        _line(f, f"1:(-${sigma_col})", lab + " (sum of Im rho_k0)")
        for f, lab in zip(files, labels)
    ]
    pred = _predictor_csv(fig, base, trajs[0], out_dir)
    clauses.append(_line(pred, "1:3", "predicted dip depth", style="with lines dashtype 3"))
    files.append(pred)
    files.append(_gnuplot(fig, out_dir, "sum of Im rho_k0", clauses))
    return files


def _fig1(out_dir):
    base = dict(_TWO, t_final=6.0)
    files, labels, _ = _curve_set("fig1", base, InterventionKind.MEASURE, [1.0], out_dir)
    t = np.arange(601) * 0.01
    vals = [rho00_perturbative(base["model"], ti) for ti in t]
    write_table_csv(os.path.join(out_dir, "fig1_perturbative.csv"), ["t", "rho_00"], [t, vals])
    files.append("fig1_perturbative.csv")
    labels.append("second order")
    clauses = [_line(f, "1:2", lab) for f, lab in zip(files, labels)]
    files.append(_gnuplot("fig1", out_dir, "rho_00", clauses))
    return files


def _fig2(out_dir):
    files, _, _ = _curve_set("fig2", _TWO, InterventionKind.MEASURE, [], out_dir)
    clauses = [
        _line(files[0], "1:5", "Re rho_10"),
        _line(files[0], "1:6", "Im rho_10"),
    ]
    files.append(_gnuplot("fig2", out_dir, "rho_10 components", clauses))
    return files


def _fig4(out_dir):
    files, labels, _ = _curve_set(
        "fig4", _TWO, InterventionKind.MEASURE, [5.5, 7.5, 8.5], out_dir
    )
    clauses = [_line(f, "1:6", lab) for f, lab in zip(files, labels)]
    files.append(_gnuplot("fig4", out_dir, "Im rho_10", clauses))
    return files


_BUILDERS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": lambda d: _population_figure("fig3", _TWO, InterventionKind.MEASURE, [5.5, 7.5, 8.5], d),
    "fig4": _fig4,
    "fig5": lambda d: _population_figure("fig5", _LIC, InterventionKind.MEASURE, [10.0, 30.0, 55.0, 80.0], d),
    "fig6": lambda d: _sigma_figure("fig6", _LIC, [10.0, 30.0, 55.0, 80.0], d),
    "fig7": lambda d: _population_figure("fig7", _LIC, InterventionKind.SIGN_FLIP, [10.0, 30.0, 55.0, 80.0], d),
    "fig8": lambda d: _population_figure("fig8", _LOC, InterventionKind.MEASURE, [30.0, 55.0, 80.0], d),
    "fig9": lambda d: _population_figure("fig9", _LOC, InterventionKind.SIGN_FLIP, [30.0, 55.0, 80.0], d),
    "fig10": lambda d: _sigma_figure("fig10", _LOC, [30.0, 55.0, 80.0], d),
}


def build_figure(figure_id: str, out_dir: str) -> list:
    """Write every file of one figure into out_dir.

    Returns the list of file names written (CSV curves plus the gnuplot
    script). Raises KeyError for an unknown id; the CLI turns that into
    its exit code.
    """
    builder = _BUILDERS[figure_id]
    os.makedirs(out_dir, exist_ok=True)
    return builder(out_dir)

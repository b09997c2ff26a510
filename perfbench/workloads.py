"""The three seeded workloads.

Each workload turns ``--seed`` into a pool of inputs during set-up, then
runs one operation per call of `run`, cycling through the pool. Inputs
vary only in physical parameters and event times: the number of grid
samples and interventions per operation is fixed, so every seed asks for
the same amount of work. Outputs stay on disk (or in memory for captured
stdout) until `check` compares them with `checks`, outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import checks
from zenosim import cli, csvio, scenario
from zenosim.interventions import Intervention, InterventionKind, InterventionSchedule
from zenosim.models import ModelSpec

POOL = 16  # distinct inputs per seed; operations cycle through them


def _band_model(kind: str, eps0: float, v: float) -> dict:
    return {"kind": kind, "eps0": eps0, "d": 5.0, "n_levels": 200, "spacing": 0.05, "v": v}


class Workload:
    """Inputs drawn from the seed at construction; `prepare` readies them
    for the timed ops, `run(i)` is op i and `check(i)` its output check."""

    def __init__(self, seed: int, workdir: Path, nproc: int):
        self.seed = seed
        self.workdir = workdir
        self.nproc = nproc
        rng = np.random.default_rng(seed)
        self.inputs = [self.make_input(rng) for _ in range(POOL)]
        self.outputs: dict = {}


class _CliWorkload(Workload):
    """Shared base of the workloads that go through `zenosim` commands."""

    grid_samples = 3  # grid rows per trajectory compared with the closed form

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for k, cfg in enumerate(self.inputs):
            path = self.workdir / f"config{k:02d}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.config_paths.append(str(path))

    def simulate(self, i: int):
        k = i % POOL
        out = str(self.workdir / f"op{i:05d}.csv")
        code = cli.main(["simulate", "--config", self.config_paths[k], "--out", out])
        if code != 0:
            raise RuntimeError(f"zenosim simulate exited {code}")
        return k, out

    def csv_paths(self, i: int) -> list:
        return [self.outputs[i][1]]

    def check(self, i: int) -> tuple:
        """(problems, rows written) for operation i."""
        k, out, stdout = self.outputs[i]
        raw = Path(out).read_bytes()
        rng = np.random.default_rng([self.seed, i])
        problems, _ = checks.check_trajectory(raw, self.inputs[k], rng, self.grid_samples)
        if stdout is not None:
            problems += checks.check_predict(stdout, raw, self.inputs[k])
        return problems, raw.count(b"\n") - 1


class LocFlip(_CliWorkload):
    """`zenosim simulate` on a level above a 200-level band with two sign flips."""

    name = "loc_flip"
    T_FINAL = 2.2
    FLIPS = 2

    def make_input(self, rng) -> dict:
        times = np.sort(rng.uniform(0.05, self.T_FINAL - 0.05, size=self.FLIPS))
        targets = [0 if rng.random() < 0.5 else int(rng.integers(1, 201)) for _ in times]
        return {
            "model": _band_model(
                "level_outside_continuum", 5.0 + rng.uniform(0.02, 0.2), rng.uniform(0.005, 0.02)
            ),
            "run": {"t_final": self.T_FINAL, "sample_dt": 0.1},
            "interventions": [
                {"time": float(t), "kind": "sign_flip", "target": j} for t, j in zip(times, targets)
            ],
        }

    def run(self, i: int) -> None:
        k, out = self.simulate(i)
        self.outputs[i] = (k, out, None)


class LicZeno(_CliWorkload):
    """`zenosim simulate` on a level inside the band under a train of
    measurements, then `zenosim predict --trajectory` on the CSV it wrote."""

    name = "lic_zeno"
    T_FINAL = 1.0
    MEASUREMENTS = 20

    def make_input(self, rng) -> dict:
        tau = rng.uniform(0.03, 0.045)
        start = rng.uniform(0.01, 0.03)
        return {
            "model": _band_model("level_in_continuum", rng.uniform(-0.5, 0.5), rng.uniform(0.005, 0.02)),
            "run": {"t_final": self.T_FINAL, "sample_dt": 0.05},
            "interventions": [
                {"time": start + m * tau, "kind": "measure", "target": 0}
                for m in range(self.MEASUREMENTS)
            ],
        }

    def run(self, i: int) -> None:
        k, out = self.simulate(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["predict", "--config", self.config_paths[k], "--trajectory", out])
        if code != 0:
            raise RuntimeError(f"zenosim predict exited {code}")
        self.outputs[i] = (k, out, buf.getvalue())


def spec_from_config(cfg: dict) -> scenario.ScenarioSpec:
    m = cfg["model"]
    return scenario.ScenarioSpec(
        model=ModelSpec.two_level(eps0=m["eps0"], eps1=m["eps1"], v=m["v"]),
        t_final=cfg["run"]["t_final"],
        sample_dt=cfg["run"]["sample_dt"],
        schedule=InterventionSchedule(
            tuple(
                Intervention(time=e["time"], kind=InterventionKind(e["kind"]), target=e["target"])
                for e in cfg["interventions"]
            )
        ),
    )


class TwoLevelSweep(Workload):
    """Batches of two-level runs with dense schedules through run_batch,
    each classified against its free run and written to CSV."""

    name = "two_level_sweep"
    BATCH = 8
    T_FINAL = 2.0
    WINDOW = (0.5, 2.0)
    THETA = 0.005

    def make_input(self, rng) -> list:
        """Intervals in [0.05, 1.0], one per stratum of the event rate
        1/interval in [1, 20]. Offsets within strata come in antithetic
        pairs (u, 1 - u), so every batch holds the same summed event rate."""
        half = rng.random(self.BATCH // 2)
        offsets = np.concatenate([half, 1.0 - half[::-1]])
        width = 19.0 / self.BATCH
        configs = []
        for j in rng.permutation(self.BATCH):
            tau = 1.0 / (1.0 + (j + offsets[j]) * width)
            start = rng.uniform(0.01, tau)
            kind = "measure" if rng.random() < 0.5 else "sign_flip"
            count = math.ceil((self.T_FINAL - 1e-6 - start) / tau)
            configs.append({
                "model": {
                    "kind": "two_level",
                    "eps0": rng.uniform(-0.3, -0.05),
                    "eps1": rng.uniform(0.05, 0.3),
                    "v": rng.uniform(0.1, 0.3),
                },
                "run": {"t_final": self.T_FINAL, "sample_dt": 0.01},
                "interventions": [
                    {"time": start + m * tau, "kind": kind, "target": int(rng.integers(0, 2))}
                    for m in range(count)
                ],
            })
        return configs

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.specs = []
        for configs in self.inputs:
            specs = [spec_from_config(c) for c in configs]
            free = [scenario.ScenarioSpec(s.model, s.t_final, s.sample_dt) for s in specs]
            self.specs.append(specs + free)

    def run(self, i: int) -> None:
        k = i % POOL
        trajs = scenario.run_batch(self.specs[k], max_workers=self.nproc)
        results = []
        for j in range(self.BATCH):
            c = scenario.classify_effect(trajs[self.BATCH + j], trajs[j], self.WINDOW, self.THETA)
            out = str(self.workdir / f"op{i:05d}-{j}.csv")
            csvio.write_trajectory_csv(trajs[j], out)
            results.append((c.effect.value, c.score, out))
        self.outputs[i] = (k, results)

    def csv_paths(self, i: int) -> list:
        return [out for _, _, out in self.outputs[i][1]]

    def check(self, i: int) -> tuple:
        """(problems, rows written) for operation i."""
        k, results = self.outputs[i]
        problems, rows = [], 0
        for cfg, (effect, score, out) in zip(self.inputs[k], results):
            raw = Path(out).read_bytes()
            rows += raw.count(b"\n") - 1
            found, rho00 = checks.check_trajectory(raw, cfg, None, None)
            problems += found
            if rho00 is not None:
                problems += checks.check_classification(
                    cfg, rho00, (effect, score), self.WINDOW, self.THETA
                )
        return problems, rows


WORKLOADS = {w.name: w for w in (LocFlip, LicZeno, TwoLevelSweep)}


"""Self-tests of the benchmark itself.

They live outside the repository's ``testpaths`` so the Tier-1 suite
does not pay for them. Run from the repository root with

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

bench.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def make(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}", 2)
    wl.prepare()
    return wl


@pytest.mark.parametrize("name", NAMES)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = json.dumps(cls(7, tmp_path, 2).inputs)
    again = json.dumps(cls(7, tmp_path, 2).inputs)
    other = json.dumps(cls(8, tmp_path, 2).inputs)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", NAMES)
def test_check_fails_an_op_with_a_population_off_by_1e_8(name, tmp_path):
    wl = make(name, 3, tmp_path)
    wl.run(0)
    assert wl.check(0)[0] == []
    path = Path(wl.csv_paths(0)[0])
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[5].split(",")
    fields[1] = f"{float(fields[1]) + 1e-8:.17g}"
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert wl.check(0)[0] != []


def bindings():
    return [owner.__dict__[name] for owner, name, _ in tracer.BINDINGS]


def test_traced_run_restores_every_binding(tmp_path):
    originals = bindings()
    wl = make("lic_zeno", 4, tmp_path)
    tr = tracer.Tracer()
    with tr.patched():
        assert all(a is not b for a, b in zip(bindings(), originals))
        wl.run(0)
    assert all(a is b for a, b in zip(bindings(), originals))
    with pytest.raises(RuntimeError):
        with tr.patched():
            raise RuntimeError("op failed mid-trace")
    assert all(a is b for a, b in zip(bindings(), originals))
    layers = {s[0] for s in tr.spans}
    assert {"cli.main", "propagator.evolve", "core.validate_density"} <= layers


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_write_identical_csvs(name, tmp_path):
    wl = make(name, 5, tmp_path)
    wl.run(0)
    with tracer.Tracer().patched():
        wl.run(workloads.POOL)  # the same input as op 0
    for a, b in zip(wl.csv_paths(0), wl.csv_paths(workloads.POOL), strict=True):
        assert Path(a).read_bytes() == Path(b).read_bytes()
    if name == "lic_zeno":
        assert wl.outputs[0][2] == wl.outputs[workloads.POOL][2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench")
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loc_flip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout

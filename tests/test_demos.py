"""Smoke test: every demo runs to completion and writes the CSVs it names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "band_decay": ["band_free.csv", "band_measured.csv"],
    "coherence_echo": ["echo_free.csv", "echo_flip_mid_rise.csv", "echo_flip_half.csv"],
    "detuned_level": ["detuned_free.csv", "detuned_measured.csv", "detuned_flipped.csv"],
    "transfer_channels": ["outflow_first_order.csv"],
    "two_level_dephasing": [
        "two_level_free.csv",
        "two_level_measured_t1.csv",
        "two_level_measured_half.csv",
    ],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs_and_writes_its_csvs(demo, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py"), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in DEMOS[demo]:
        path = tmp_path / name
        assert path.is_file() and path.stat().st_size > 0, f"{demo} did not write {name}"

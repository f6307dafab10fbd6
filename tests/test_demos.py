"""Smoke test: every demo runs to completion in a temporary working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A line each demo prints near its end, so a run that stops early fails.
DEMOS = {
    "01_agreement_basics": "rule is always reported next to the number it produced",
    "02_metric_catalog": "frequentist vs reliability",
    "03_power_ranking": "bvm reproduce ex-5.1",
    "04_oscillator_compound": "bvm reproduce ex-5.2",
    "05_polynomial_sweep": "bvm reproduce ex-5.3",
}


def test_every_demo_is_listed():
    assert sorted(DEMOS) == sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", list(DEMOS))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout

"""Every example script must stay runnable end to end.

The heavyweight full-paper scripts are exercised in quick mode via
their module-level entry points where available; the rest run as-is in
a subprocess.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST_SCRIPTS = [
    "quickstart.py",
    "live_generation.py",
    "serving_comparison.py",
    "backend_comparison.py",
    "sustained_serving.py",
    "edge_cloud_splitting.py",
]


@pytest.mark.parametrize("script", FAST_SCRIPTS)
def test_example_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_power_mode_tuning_reports_all_modes():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "power_mode_tuning.py"), "phi2"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for mode in ("MAXN", "A", "H"):
        assert mode in proc.stdout
    assert "recommendations" in proc.stdout


def test_quantization_planner_handles_oversized_model():
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quantization_planner.py"), "deepq"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "OOM" in proc.stdout  # fp32/fp16 rows cannot fit

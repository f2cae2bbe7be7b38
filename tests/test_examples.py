"""Every example script must run end to end (reduced wall time guards)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "carpool_detection.py", "storage_backends.py",
     "convoy_service.py", "http_service.py", "metrics_dashboard.py",
     "fleet_dashboard.py"],
)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_quickstart_finds_planted_convoys():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "mined fully connected convoys" in result.stdout
    assert "convoys found" in result.stdout


@pytest.mark.parametrize(
    "script", ["traffic_jam_monitor.py", "baseline_comparison.py"]
)
def test_heavy_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr

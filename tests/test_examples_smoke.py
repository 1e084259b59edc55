"""Smoke tests: the shipped examples must run and print their headlines.

Only the fast examples run here (the campaign and Monte Carlo examples
take minutes and are exercised through their underlying APIs elsewhere).
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "RABIT stopped the experiment" in out
        assert "[G1]" in out
        assert "Ground-truth damage events: 0" in out
        assert "top-down" in out  # deck rendering

    def test_failsafe_and_sensors(self):
        out = run_example("failsafe_and_sensors.py")
        assert "recovery: ur3e: set vial down at grid_a1 -> ok" in out
        assert "[S1]" in out
        assert "person left: motion resumes" in out

    def test_solubility_experiment(self):
        out = run_example("solubility_experiment.py")
        assert "completed: True" in out
        assert "RABIT alerts: 0" in out
        assert "5 mg solid" in out

    def test_multi_robot(self):
        out = run_example("multi_robot.py")
        assert "plain RABIT: NOT DETECTED" in out
        assert "attach_time_multiplexing: PREVENTED" in out
        assert "attach_space_multiplexing: PREVENTED" in out
        assert "[G3]" in out  # the software wall

    def test_three_stage_validation(self):
        out = run_example("three_stage_validation.py")
        assert "promoted to production: True" in out
        assert "simulator: REJECTED" in out
        assert "rejected at: simulator, risk exposure: 0" in out

    def test_adapt_new_lab(self):
        out = run_example("adapt_new_lab.py")
        assert "config validation: 0 errors" in out
        assert "spray-coating workflow: completed=True, alerts=0" in out
        assert "headline custom rule recovered:" in out
        assert "'start_dosing' on a dosing system must precede 'dose_liquid'" in out

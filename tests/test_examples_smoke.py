"""Smoke tests: every shipped example runs to completion.

Examples are the quickstart documentation; bitrot there is worse than a
failing unit test.  Each runs in a subprocess with output captured, and a
couple of load-bearing lines are asserted.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "checkpoint write acked" in out
    assert "system report" in out


def test_supercomputer_feed():
    out = run_example("supercomputer_feed.py")
    assert "Figure 1" in out
    assert "dual PCI-X bridge" in out


def test_national_lab_grid():
    out = run_example("national_lab_grid.py")
    assert "replica map:" in out
    assert "disaster recovery" in out


def test_multi_tenant_lab():
    out = run_example("multi_tenant_lab.py")
    assert "monthly charge-back" in out
    assert "DENIED" in out


def test_disaster_recovery():
    out = run_example("disaster_recovery.py")
    assert "rebuild complete" in out
    assert "service availability over the whole run: 1.0000" in out


def test_automated_operations():
    out = run_example("automated_operations.py")
    assert "automation log" in out
    assert "0 human tickets" in out


def test_telemetry_dashboard():
    out = run_example("telemetry_dashboard.py")
    assert "time series at t=300.000000s" in out
    assert "kernel profile:" in out
    assert '"kind":"slo.burn_rate"' in out
    assert 'netstorage_slo_alerts_active{slo="blades-up"} 2' in out


def test_megascale_site():
    out = run_example("megascale_site.py")
    assert "2,500,000 modeled clients" in out
    assert "telemetry dashboard" in out
    assert "peak pending events" in out


@pytest.mark.parametrize("name", [p.name for p in EXAMPLES.glob("*.py")])
def test_every_example_has_a_smoke_test(name):
    covered = {"quickstart.py", "supercomputer_feed.py",
               "national_lab_grid.py", "multi_tenant_lab.py",
               "disaster_recovery.py", "automated_operations.py",
               "telemetry_dashboard.py", "megascale_site.py"}
    assert name in covered, f"example {name} lacks a smoke test"

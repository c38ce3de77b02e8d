"""The seed-0 sweep of the whole scenario catalog, run once per session
and shared by the golden-verdict, online/offline-agreement,
monitors-do-not-perturb and committed-flight-record tests (the sweep
dominates the suite's runtime)."""

import pytest

from repro.chaos.runner import execute, flight_records, verdict
from repro.chaos.scenarios import scenarios


def _documents(name, monitors):
    """Verdict + flight records of one seed-0 run; only documents leave
    this frame, so the finished run (and its cluster) dies with it."""
    run = execute(name, seed=0, monitors=monitors)
    return verdict(run), flight_records(run)


@pytest.fixture(scope="session")
def seed0_sweep():
    """Per scenario: ``(monitored verdict, unmonitored verdict, flight
    records of the monitored run)``."""
    sweep = {}
    for name in scenarios():
        monitored, flight = _documents(name, monitors=True)
        unmonitored, _ = _documents(name, monitors=False)
        sweep[name] = (monitored, unmonitored, flight)
    return sweep


@pytest.fixture(scope="session")
def verdicts(seed0_sweep):
    return {name: docs[:2] for name, docs in seed0_sweep.items()}


@pytest.fixture(scope="session")
def flights(seed0_sweep):
    return {name: docs[2] for name, docs in seed0_sweep.items()}

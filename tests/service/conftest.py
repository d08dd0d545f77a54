"""Shared fixtures for the job-service test suite."""

import threading

import pytest

from repro.experiments import ghz_circuit
from repro.service import JobSpec, RunStore
from repro.service import scheduler as scheduler_module

#: Upper bound on how long a held job waits for its release; a test that
#: forgets to release fails at teardown instead of hanging the suite.
HOLD_TIMEOUT_SECONDS = 30.0


@pytest.fixture
def store(tmp_path):
    """A fresh run store in a temporary directory."""
    return RunStore(tmp_path / "store")


@pytest.fixture
def ghz_spec():
    """Factory of small GHZ job specs (2-cut under width 3 for 4 qubits)."""

    def make(qubits=4, shots=2000, seed=7, **overrides):
        kwargs = {
            "circuit": ghz_circuit(qubits),
            "observable": "Z" * qubits,
            "shots": shots,
            "seed": seed,
            "max_fragment_width": 3,
        }
        kwargs.update(overrides)
        return JobSpec(**kwargs)

    return make


@pytest.fixture
def held_jobs(monkeypatch):
    """Hold every thread-mode job in flight until the test releases it.

    Patches the ``run_job`` that :class:`~repro.service.JobScheduler` worker
    threads call with a wrapper that blocks on a :class:`threading.Event`
    before running the real job, and yields that event.  While it is unset,
    every submitted job stays queued or running, so tests of admission
    quotas and drain see a job in flight by construction rather than by
    racing its run time.  A test releases the jobs with ``event.set()``
    before it stops the service; teardown always sets the event, and fails
    the test if a held job timed out waiting for its release.
    """
    release = threading.Event()
    timed_out = []
    real_run_job = scheduler_module.run_job

    def held_run_job(*args, **kwargs):
        if not release.wait(timeout=HOLD_TIMEOUT_SECONDS):
            timed_out.append(True)
            raise RuntimeError("held job was never released by the test")
        return real_run_job(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "run_job", held_run_job)
    yield release
    release.set()
    assert not timed_out, "a held job timed out waiting for its release"

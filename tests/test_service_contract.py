"""Compute services answer one submit/poll surface.

Callers hold a JobRequest and should not care which simulated calculator
it lands on. These tests drive the simulated executor through one harness
and pin the shared contract; withdraw, which targets one job, gets its own
case.
"""

import pytest

from gridflow.resources import (
    FAILED,
    SUCCEEDED,
    WITHDRAWN,
    JobHandle,
    JobRequest,
    UnknownJob,
)
from gridflow.simgrid import SimulatedExecutor, standard_registry
from gridflow.storage import ContentStore


class ComputeUnderTest:
    """Simulated executor wrapped for the contract cases."""

    resource_id = "noop@sandbox-01"

    def __init__(self, tmp_path):
        self.store = ContentStore(tmp_path / "store")
        self.service = SimulatedExecutor(standard_registry(), self.store, seed=7)

    def good_request(self, n=0):
        return JobRequest.build(
            self.resource_id, f"probe{n}", "run-c", (), {"x": str(float(n))}
        )

    def bad_request(self):
        # latgen refuses a 1-cell lattice; same service, failing job
        return JobRequest.build("latgen@struct-01", "bad", "run-c", (), {"cells": "1"})

    def settle(self):
        while self.service.wait_any():
            pass


@pytest.fixture(params=["compute"])
def harness(tmp_path):
    return ComputeUnderTest(tmp_path)


class TestSharedSurface:
    def test_successful_job_completes(self, harness):
        handle = harness.service.submit(harness.good_request())
        assert handle.resource_id == harness.resource_id
        harness.settle()
        status = harness.service.poll(handle)
        assert status.state == SUCCEEDED
        assert status.result is not None
        assert status.reason is None

    def test_poll_is_stable_once_terminal(self, harness):
        handle = harness.service.submit(harness.good_request())
        harness.settle()
        first = harness.service.poll(handle)
        second = harness.service.poll(handle)
        assert first.state == second.state == SUCCEEDED

    def test_failure_is_a_status_not_an_exception(self, harness):
        handle = harness.service.submit(harness.bad_request())
        harness.settle()
        status = harness.service.poll(handle)
        assert status.state == FAILED
        assert status.reason

    def test_unknown_job_rejected(self, harness):
        with pytest.raises(UnknownJob):
            harness.service.poll(JobHandle("no-such-job", harness.resource_id))


class TestWithdrawSemantics:
    def test_compute_withdraw_targets_one_job(self, tmp_path):
        h = ComputeUnderTest(tmp_path)
        victim = h.service.submit(h.good_request(0))
        assert h.service.withdraw(victim).state == WITHDRAWN
        survivor = h.service.submit(h.good_request(1))
        h.settle()
        assert h.service.poll(survivor).state == SUCCEEDED
        assert h.service.poll(victim).state == WITHDRAWN

"""Shared fixtures for the service tests."""

from __future__ import annotations

import threading

import pytest

from repro.engine.pipeline import Pipeline
from repro.engine.stages import default_stages
from repro.service.service import ExplorationService


class GateStage:
    """A stage that blocks until released — saturates the worker pool."""

    name = "gate"

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def run(self, state, context) -> None:
        self.entered.release()
        if not self.release.wait(timeout=30):  # pragma: no cover - hang guard
            raise TimeoutError("gate was never released")


@pytest.fixture
def gated():
    """(service, gate) with 2 workers, queue depth 2, gated pipeline."""
    gate = GateStage()
    service = ExplorationService(
        max_workers=2,
        max_queue_depth=2,
        pipeline=Pipeline([gate, *default_stages()]),
    )
    yield service, gate
    gate.release.set()
    service.close()


@pytest.fixture
def census_service(census_small):
    """A small ready-to-serve service over the shared census table."""
    service = ExplorationService(max_workers=2, max_queue_depth=8)
    service.register(census_small)
    yield service
    service.close()

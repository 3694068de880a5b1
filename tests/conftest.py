"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import load_dataset
from repro.searchspace import ArchitectureSpace

# ``HYPOTHESIS_PROFILE=ci`` runs every property test that does not pin its
# own ``max_examples`` (the bitwise gates) on five times the default count.
settings.register_profile("ci", max_examples=5 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_covertype():
    """Small covertype-analogue reused across integration tests."""
    return load_dataset("covertype", size=1200)


@pytest.fixture
def small_space() -> ArchitectureSpace:
    """A 4-node architecture space (fast to build/train)."""
    return ArchitectureSpace(num_nodes=4)


@pytest.fixture
def full_space() -> ArchitectureSpace:
    """The paper's 10-node / 37-variable space."""
    return ArchitectureSpace(num_nodes=10)


def make_blobs(
    rng: np.random.Generator, n: int = 400, d: int = 8, classes: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Tiny separable classification problem for learner tests."""
    centers = rng.normal(size=(classes, d)) * 3.0
    y = rng.integers(0, classes, size=n)
    X = centers[y] + rng.normal(size=(n, d))
    return X, y.astype(np.int64)


def restorable_state(evaluator) -> dict:
    """A simulated evaluator's state as a checkpoint restores it: its
    snapshot with ``"jobs"`` widened to the whole job table (a checkpoint
    journals the delivered jobs apart from the snapshot), through JSON."""
    import json

    from repro.workflow.jobs import job_to_dict

    state = {**evaluator.state_dict(), "jobs": [job_to_dict(job) for job in evaluator.jobs]}
    return json.loads(json.dumps(state))

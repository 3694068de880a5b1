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


class ScriptedSpace:
    """An architecture space that hands out the one-variable architectures
    of ``script`` in order: a search whose population never fills draws
    every configuration from it, so a test can script duplicates."""

    def __init__(self, script) -> None:
        self._script = iter(script)

    def random_sample(self, rng) -> np.ndarray:
        return np.array([next(self._script)], dtype=np.int64)


class _TwoMinutesRaisingOnOne:
    """Declares 2 minutes for every config and raises on architecture 1."""

    def duration(self, config) -> float:
        return 2.0

    def __call__(self, config):
        from repro.workflow import EvaluationResult

        if int(config.arch[0]) == 1:
            raise RuntimeError("boom")
        return EvaluationResult(0.5, 2.0)


def beside_a_raise_campaign(cache=None):
    """AgE on 2 workers under ``on_error="raise"`` over the scripted
    architectures 2, 3, 0, 1, 4, 5, ...: at minute 4 the attempt of
    architecture 0 (job 2) ends and then the one of architecture 1 (job 3)
    raises in the same gather."""
    from repro.core import AgE
    from repro.workflow import FaultPolicy, SimulatedEvaluator

    policy = FaultPolicy(on_error="raise")
    ev = SimulatedEvaluator(_TwoMinutesRaisingOnOne(), 2, fault_policy=policy, cache=cache)
    return AgE(ScriptedSpace([2, 3, 0, 1, 4, 5, 6, 7]), ev, population_size=10, sample_size=2)


def resumed(search, build):
    """``build()``, a fresh search built like ``search``, resumed from the
    checkpoint ``search`` writes now, as a killed campaign resumes."""
    import tempfile

    from repro.core.serialization import load_checkpoint, save_checkpoint

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.jsonl")
        save_checkpoint(search, path)
        journal = load_checkpoint(path)
    copy = build()
    copy.resume(journal)
    return copy


def journal_cut_after(path, num_markers: int):
    """The journal at ``path`` read as if its campaign died right after
    writing its ``num_markers``-th checkpoint."""
    from repro.core.serialization import load_checkpoint

    lines = open(path).read().splitlines(keepends=True)
    ends = [i for i, line in enumerate(lines) if line.startswith('{"checkpoint"')]
    cut = f"{path}.cut"
    with open(cut, "w") as fh:
        fh.writelines(lines[: ends[num_markers - 1] + 1])
    return load_checkpoint(cut)

"""Shared manager-loop machinery for AgE and AgEBO (Algorithm 1 skeleton).

The loop follows the paper exactly: seed the cluster with ``W`` random
configurations, then repeatedly gather finished evaluations, push them into
the aging population, generate exactly ``|results|`` replacements (random
while the population is filling, tournament + mutation afterwards) and
resubmit — keeping every worker busy, which is what yields the ≈94% node
utilization reported in §IV-C.

Checkpoints keep each evaluation once, in the evaluator's job table: a
checkpoint journal (:mod:`repro.core.serialization`) appends the jobs of
new history records next to a small :meth:`AgingEvolutionBase.state_dict`
snapshot, and :meth:`AgingEvolutionBase.load_state` rebuilds the history
and population from the jobs.  Resuming is one path:
:func:`repro.campaign.resume_campaign` builds the campaign from the
checkpoint's embedded config and calls ``load_state``.
"""

from __future__ import annotations

import collections
from typing import Any

import numpy as np

from repro.core.config import ModelConfig
from repro.core.results import EvaluationRecord, SearchHistory
from repro.searchspace.archspace import ArchitectureSpace
from repro.searchspace.mutation import mutate_architecture
from repro.workflow.evaluator import Evaluator
from repro.workflow.jobs import Job

__all__ = ["AgingEvolutionBase"]


class AgingEvolutionBase:
    """Common aging-evolution mechanics; subclasses supply ``h_m`` policy.

    Parameters
    ----------
    space:
        The architecture search space ``H_a``.
    evaluator:
        A submit/gather backend; its ``num_workers`` is ``W``.
    population_size, sample_size:
        ``P`` and ``S`` (paper: 100 and 10).
    replacement:
        ``"aging"`` (paper: evict the oldest member) or ``"elitist"``
        (ablation: evict the worst member) when the population is full.
    """

    def __init__(
        self,
        space: ArchitectureSpace,
        evaluator: Evaluator,
        population_size: int = 100,
        sample_size: int = 10,
        seed: int = 0,
        mutate_skips: bool = True,
        replacement: str = "aging",
        label: str = "",
    ) -> None:
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 1 <= sample_size <= population_size:
            raise ValueError("sample_size must be in [1, population_size]")
        if replacement not in ("aging", "elitist"):
            raise ValueError(f"unknown replacement {replacement!r}")
        self.space = space
        self.evaluator = evaluator
        self.population_size = population_size
        self.sample_size = sample_size
        self.num_workers = evaluator.num_workers
        self.rng = np.random.default_rng(seed)
        self.mutate_skips = mutate_skips
        self.replacement = replacement
        # Aging population: a bounded FIFO queue; pushing past capacity
        # evicts the oldest member (paper line 11).  Elitist replacement
        # (the ablation) evicts the worst member instead.
        self.population: collections.deque[EvaluationRecord] = collections.deque()
        self.history = SearchHistory(label=label or type(self).__name__)
        # Evaluator job of each history record, in gather order: a
        # checkpoint journals each once, in this order, and a restore
        # rebuilds the records from them.  ``_positions`` maps a record
        # (by id) to its history index, for the population's positions.
        self.history_jobs: list[Job] = []
        self._positions: dict[int, int] = {}
        # (path, jobs journaled, file identity) of the last checkpoint
        # write, which the next one appends to (see save_checkpoint).
        self._journal: tuple | None = None
        # Resume bookkeeping: whether the initial W submissions happened,
        # how many full gather→submit iterations have completed, and any
        # gathered results whose replacements were not yet submitted when a
        # budget stop interrupted the loop.
        self._initialized = False
        self._iterations = 0
        self._pending_results: list[EvaluationRecord] = []
        # Free-form dict stored inside checkpoints (the campaign layer
        # records the full CampaignConfig here so --resume can rebuild
        # everything from it).
        self.checkpoint_metadata: dict[str, Any] = {}
        # Optional campaign event bus (attached by repro.campaign.builder);
        # when set, the loop emits PopulationUpdated / CheckpointWritten.
        self.event_bus = None

    # ------------------------------------------------------------------ #
    # Hooks implemented by AgE / AgEBO
    # ------------------------------------------------------------------ #
    def _initial_hyperparameters(self, k: int) -> list[dict[str, Any]]:
        raise NotImplementedError

    def _next_hyperparameters(self, results: list[EvaluationRecord]) -> list[dict[str, Any]]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def _child_architecture(self) -> np.ndarray:
        """Tournament + mutation once the population is full, else random."""
        if len(self.population) >= self.population_size:
            sample_idx = self.rng.integers(0, len(self.population), size=self.sample_size)
            sample = [self.population[int(i)] for i in sample_idx]
            parent = max(sample, key=lambda r: r.objective)
            return mutate_architecture(
                self.space, parent.config.arch, self.rng, mutate_skips=self.mutate_skips
            )
        return self.space.random_sample(self.rng)

    @staticmethod
    def _job_record(job: Job) -> EvaluationRecord:
        """The history record of a gathered job (also rebuilds checkpoints)."""
        return EvaluationRecord(
            config=job.config,
            objective=job.result.objective,
            duration=job.result.duration,
            submit_time=job.submit_time,
            start_time=job.start_time,
            end_time=job.end_time,
            metadata=job.result.metadata,
        )

    def _record(self, job: Job) -> EvaluationRecord:
        record = self._job_record(job)
        self._positions[id(record)] = len(self.history)
        self.history.add(record)
        self.history_jobs.append(job)
        if len(self.population) >= self.population_size:
            if self.replacement == "aging":
                self.population.popleft()
            else:
                worst = min(range(len(self.population)), key=lambda i: self.population[i].objective)
                del self.population[worst]
        self.population.append(record)
        if self.event_bus is not None:
            from repro.campaign.events import PopulationUpdated

            self.event_bus.emit(
                PopulationUpdated(
                    num_evaluations=len(self.history),
                    population_size=len(self.population),
                    objective=record.objective,
                    best_objective=self.history.best().objective,
                    time=self.evaluator.now,
                )
            )
        return record

    # ------------------------------------------------------------------ #
    def search(
        self,
        max_evaluations: int | None = None,
        wall_time_minutes: float | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
    ) -> SearchHistory:
        """Run Algorithm 1 until an evaluation or time budget is hit.

        ``wall_time_minutes`` is measured on the evaluator's clock
        (simulated minutes for the simulated backend).  When
        ``checkpoint_path`` is given, the search state is written
        there after every ``checkpoint_every``-th completed iteration —
        always at a quiescent point (after the replacement submissions), so
        resuming from any checkpoint replays the remaining campaign
        bit-identically.  Calling ``search`` again on a restored instance
        continues the same campaign (the initial submissions are skipped).
        """
        if max_evaluations is None and wall_time_minutes is None:
            raise ValueError("need at least one of max_evaluations / wall_time_minutes")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

        if not self._initialized:
            # Initialization (lines 3-7): W random submissions.
            initial_hps = self._initial_hyperparameters(self.num_workers)
            initial = [
                ModelConfig(arch=self.space.random_sample(self.rng), hyperparameters=hp)
                for hp in initial_hps
            ]
            self.evaluator.submit(initial)
            self._initialized = True
        elif self._pending_results:
            # A previous call stopped on a budget after recording a batch.
            # An uninterrupted run with this budget stopped at the same
            # point if the batch meets it too; otherwise submit the batch's
            # replacements first, so continuation is identical to an
            # uninterrupted run with the larger budget.
            if self._budget_met(max_evaluations, wall_time_minutes):
                return self.history
            self._resubmit(self._pending_results)
            self._pending_results = []

        while True:
            jobs = self.evaluator.gather()
            if not jobs:
                break  # nothing in flight: budget exhausted below or drained
            results = [self._record(job) for job in jobs]

            if self._budget_met(max_evaluations, wall_time_minutes):
                self._pending_results = results
                break

            self._resubmit(results)
            self._iterations += 1
            if checkpoint_path is not None and self._iterations % checkpoint_every == 0:
                self.checkpoint(checkpoint_path)
                if self.event_bus is not None:
                    from repro.campaign.events import CheckpointWritten

                    self.event_bus.emit(
                        CheckpointWritten(
                            path=str(checkpoint_path),
                            num_evaluations=len(self.history),
                            time=self.evaluator.now,
                        )
                    )

        return self.history

    def _budget_met(self, max_evaluations: int | None, wall_time_minutes: float | None) -> bool:
        if max_evaluations is not None and len(self.history) >= max_evaluations:
            return True
        return wall_time_minutes is not None and self.evaluator.now >= wall_time_minutes

    def _resubmit(self, results: list[EvaluationRecord]) -> None:
        """Generate and submit |results| replacement configurations (lines 12-23)."""
        next_hps = self._next_hyperparameters(results)
        children = [
            ModelConfig(arch=self._child_architecture(), hyperparameters=hp)
            for hp in next_hps
        ]
        self.evaluator.submit(children)

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def checkpoint(self, path) -> None:
        """Write the search state to ``path`` (see :func:`save_checkpoint
        <repro.core.serialization.save_checkpoint>`)."""
        from repro.core.serialization import save_checkpoint

        save_checkpoint(self, path)

    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the state that cannot be derived: RNG,
        iteration counters and the evaluator's cluster state.

        Every evaluation is stored once, in the evaluator's job table; the
        history is its delivered jobs in gather order (journaled by the
        checkpoint, not held here), the population positions into the
        history, and the pending results a count (they are the last
        records of the history).
        """
        return {
            "rng_state": self.rng.bit_generator.state,
            "initialized": self._initialized,
            "iterations": self._iterations,
            "population": [self._positions[id(r)] for r in self.population],
            "pending_results": len(self._pending_results),
            "evaluator": self.evaluator.state_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a checkpointed search: a :meth:`state_dict` snapshot
        plus ``"history"``, the history's job ids in gather order, and the
        whole job table in the evaluator's ``"jobs"`` (the shape
        :func:`~repro.core.serialization.load_checkpoint` returns).

        Loads into a search built with the checkpointed constructor
        arguments (the embedded ``CampaignConfig`` is their one source, see
        :func:`repro.campaign.resume_campaign`).  The evaluator loads first;
        history, population and pending results are rebuilt from its jobs.
        """
        self.evaluator.load_state(state["evaluator"])
        self.rng.bit_generator.state = state["rng_state"]
        self._initialized = bool(state["initialized"])
        self._iterations = int(state["iterations"])
        jobs = {job.job_id: job for job in self.evaluator.jobs}
        self.history_jobs = [jobs[int(job_id)] for job_id in state["history"]]
        self.history = SearchHistory(label=self.history.label)
        for job in self.history_jobs:
            self.history.add(self._job_record(job))
        records = self.history.records
        self._positions = {id(record): i for i, record in enumerate(records)}
        self.population = collections.deque(records[int(i)] for i in state["population"])
        self._pending_results = records[len(records) - int(state["pending_results"]) :]
        self._journal = None  # the next checkpoint rewrites its file

"""Shared manager-loop machinery for AgE and AgEBO (Algorithm 1 skeleton).

The loop follows the paper exactly: seed the cluster with ``W`` random
configurations, then repeatedly gather finished evaluations, push them into
the aging population, generate exactly ``|results|`` replacements (random
while the population is filling, tournament + mutation afterwards) and
resubmit — keeping every worker busy, which is what yields the ≈94% node
utilization reported in §IV-C.

A checkpoint journal (:mod:`repro.core.serialization`) holds the jobs of
the history, in gather order, and a marker per checkpoint: the iteration
count and how many gathered results still wait for their replacements.
A seeded search on the simulated evaluator is a deterministic function
of its constructor arguments, so :meth:`AgingEvolutionBase.resume`
rebuilds everything else by running the search again up to the marker,
serving each journaled clean training from its job line.  Resuming is
one path: :func:`repro.campaign.resume_campaign` builds the campaign from
the checkpoint's embedded config and calls ``resume``.
"""

from __future__ import annotations

import collections
import json
from typing import Any

import numpy as np

from repro.core.config import ModelConfig
from repro.core.results import EvaluationRecord, SearchHistory
from repro.searchspace.archspace import ArchitectureSpace
from repro.searchspace.mutation import mutate_architecture
from repro.workflow.evaluator import Evaluator
from repro.workflow.jobs import Job, job_from_dict, job_to_dict

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
        # checkpoint journals each once, in this order.
        self.history_jobs: list[Job] = []
        # (path, jobs journaled, file identity) of the last checkpoint
        # write, which the next one appends to (see save_checkpoint).
        self._journal: tuple | None = None
        # Loop state: whether the initial W submissions happened, how many
        # gather→submit iterations have completed, and the gathered results
        # whose replacements are not submitted yet (a budget stop leaves
        # them for the next call).
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

    def _record(self, job: Job) -> EvaluationRecord:
        record = EvaluationRecord(
            config=job.config,
            objective=job.result.objective,
            duration=job.result.duration,
            submit_time=job.submit_time,
            start_time=job.start_time,
            end_time=job.end_time,
            metadata=job.result.metadata,
        )
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
        bit-identically; only a checkpointable evaluator (the simulated
        one) takes a path.  Calling ``search`` again continues the same
        campaign (the initial submissions are skipped), iteration for
        iteration as an uninterrupted run with the larger budget.
        """
        if max_evaluations is None and wall_time_minutes is None:
            raise ValueError("need at least one of max_evaluations / wall_time_minutes")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if checkpoint_path is not None:
            self._require_checkpointable()

        self._start()
        while True:
            if self._pending_results:
                # An uninterrupted run with this budget stops here if the
                # gathered batch meets it; otherwise the batch's
                # replacements go out and the iteration completes.
                if self._budget_met(max_evaluations, wall_time_minutes):
                    break
                self._advance()
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
            jobs = self.evaluator.gather()
            if not jobs:
                break  # nothing in flight: drained
            self._pending_results = [self._record(job) for job in jobs]

        return self.history

    def _start(self) -> None:
        """Initialization (lines 3-7): W random submissions, once."""
        if self._initialized:
            return
        initial_hps = self._initial_hyperparameters(self.num_workers)
        initial = [
            ModelConfig(arch=self.space.random_sample(self.rng), hyperparameters=hp)
            for hp in initial_hps
        ]
        self.evaluator.submit(initial)
        self._initialized = True

    def _advance(self) -> None:
        """Complete an iteration: submit the gathered batch's |results|
        replacement configurations (lines 12-23)."""
        results, self._pending_results = self._pending_results, []
        next_hps = self._next_hyperparameters(results)
        children = [
            ModelConfig(arch=self._child_architecture(), hyperparameters=hp)
            for hp in next_hps
        ]
        self.evaluator.submit(children)
        self._iterations += 1

    def _budget_met(self, max_evaluations: int | None, wall_time_minutes: float | None) -> bool:
        if max_evaluations is not None and len(self.history) >= max_evaluations:
            return True
        return wall_time_minutes is not None and self.evaluator.now >= wall_time_minutes

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def _require_checkpointable(self) -> None:
        if not self.evaluator.checkpointable:
            raise NotImplementedError(
                f"{type(self.evaluator).__name__} does not support checkpointing"
            )

    def checkpoint(self, path) -> None:
        """Write the search state to ``path`` (see :func:`save_checkpoint
        <repro.core.serialization.save_checkpoint>`)."""
        from repro.core.serialization import save_checkpoint

        save_checkpoint(self, path)

    def resume(self, journal: dict[str, Any]) -> None:
        """Continue a checkpointed campaign in this freshly built search.

        ``journal`` is what :func:`~repro.core.serialization.load_checkpoint`
        read.  The search runs again, emitting no event and writing no
        checkpoint, until its history is the journaled one, ``checkpoint``
        iterations are complete and the last ``pending`` results wait for
        their replacements.  Each clean training a job line records is
        served from it (:meth:`SimulatedEvaluator.serve
        <repro.workflow.evaluator.SimulatedEvaluator.serve>`).

        The search must be built with the checkpointed constructor
        arguments (see :func:`repro.campaign.resume_campaign`) and a run
        function that is a pure function of its config.  Raises
        ``ValueError`` naming the first job that replays differently from
        its line (another seed or config, or a host whose floating point
        gives another history).  A raise ends a campaign
        (:class:`~repro.workflow.evaluator.Evaluator`), so a journal saved
        after one holds nothing past it: the replay stops short of that
        raise, and the next ``search`` raises the same exception again.
        """
        self._require_checkpointable()
        rows = journal["jobs"]
        mark = (len(rows), journal["checkpoint"], journal["pending"])
        buses = self.event_bus, self.evaluator.event_bus
        self.event_bus = self.evaluator.event_bus = None
        self.evaluator.serve(job_from_dict(row) for row in rows)
        try:
            while (len(self.history), self._iterations, len(self._pending_results)) != mark:
                done = len(self.history)
                if self._pending_results:
                    self._advance()
                elif not self._initialized:
                    self._start()
                elif done < len(rows) and self._iterations <= mark[1]:
                    jobs = self.evaluator.gather()
                    if not jobs:
                        raise ValueError(
                            f"job {rows[done]['job_id']} (evaluation {done}) does not "
                            "replay: the campaign drained before it"
                        )
                    self._pending_results = [self._record(job) for job in jobs]
                    for i, job in enumerate(self.history_jobs[done:], done):
                        row = rows[i] if i < len(rows) else None
                        if row is None or json.dumps(job_to_dict(job)) != json.dumps(row):
                            raise ValueError(
                                f"job {job.job_id if row is None else row['job_id']} "
                                f"(evaluation {i}) does not replay as journaled"
                            )
                else:
                    raise ValueError(
                        f"the replay does not reach checkpoint {mark[1]}: it stands at "
                        f"iteration {self._iterations} with {done} evaluations"
                    )
        finally:
            self.evaluator.serve(())
            self.event_bus, self.evaluator.event_bus = buses
        self._journal = None  # the next checkpoint rewrites its file

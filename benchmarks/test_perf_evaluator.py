"""Perf bench: process-pool vs thread-pool evaluation, and cache hit-rate.

Times a batch of CPU-bound run functions (pure-Python arithmetic — the
GIL-worst case the process backend exists for) on ``ThreadedEvaluator``
vs ``ProcessPoolEvaluator`` with identical worker counts, and measures
the evaluation-cache hit-rate + busy-time saving of a seeded AgE run on
the simulated backend, writing results to ``BENCH_evaluator.json`` at
the repo root.

Timings are recorded, never asserted (machine-dependent; on a
single-core machine the process backend cannot beat the thread pool, so
``cpu_count`` is recorded alongside the ratio).  The bench fails only on
the equivalence gates: both backends must return identical objectives
for identical configs, and the cached AgE history must be bit-identical
to the uncached one.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from common import BenchEntry, median_time, write_bench_json
from repro.core import AgE
from repro.core.serialization import history_to_dict
from repro.searchspace import ArchitectureSpace
from repro.workflow import (
    EvaluationCache,
    EvaluationResult,
    JobState,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
NUM_WORKERS = 4
NUM_JOBS = 16
SPIN_ITERS = 120_000


def cpu_bound_run(config):
    """Pure-Python spin: holds the GIL, so threads serialize on it."""
    acc = 0
    for i in range(SPIN_ITERS):
        acc = (acc * 31 + i + int(config)) % 1_000_003
    return EvaluationResult(objective=(acc % 1000) / 1000.0, duration=1.0)


def arch_eval(config):
    """Deterministic stand-in for training: a small spin gives the cache
    real compute to save."""
    import numpy as np

    arch = np.asarray(config.arch)
    h = int(np.sum(arch * np.arange(1, arch.size + 1)))
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i + h) % 1_000_003
    return EvaluationResult(
        objective=0.3 + 0.6 * ((h * 37) % 101) / 101.0,
        duration=1.0 + (h % 5),
    )


def computed_minutes(ev):
    """Σ(end − start) over finished jobs that ran the run function."""
    finished = (JobState.DONE, JobState.FAILED)
    return sum(
        job.end_time - job.start_time
        for job in ev.jobs
        if job.state in finished and not job.cache_hit
    )


def _drain(ev):
    finished = []
    while ev.num_in_flight:
        finished.extend(ev.gather())
    return finished


def _run_batch(ev, offset=0):
    ev.submit(list(range(offset, offset + NUM_JOBS)))
    return _drain(ev)


def test_perf_process_vs_thread_and_cache():
    # Persistent pools: workers fork once (during the warmup repeat), so
    # the timing isolates dispatch + evaluation, not pool construction.
    with ThreadedEvaluator(cpu_bound_run, NUM_WORKERS) as ev_thread, \
            ProcessPoolEvaluator(cpu_bound_run, NUM_WORKERS) as ev_proc:
        # --- equivalence gate: identical objectives across backends ---- #
        threaded = _run_batch(ev_thread)
        process = _run_batch(ev_proc)
        by_id_t = {j.config: j.objective for j in threaded}
        by_id_p = {j.config: j.objective for j in process}
        assert by_id_t == by_id_p

        # --- CPU-bound batch: thread pool (GIL-bound) vs process pool -- #
        entries = [
            BenchEntry(
                "cpu_bound_batch",
                median_time(lambda: _run_batch(ev_thread), repeats=3),
                median_time(lambda: _run_batch(ev_proc), repeats=3),
                meta={
                    "workers": NUM_WORKERS,
                    "jobs": NUM_JOBS,
                    "spin_iters": SPIN_ITERS,
                    "cpu_count": os.cpu_count(),
                },
            )
        ]

    # --- cache hit-rate on a seeded AgE run (simulated backend) -------- #
    space = ArchitectureSpace(num_nodes=2)

    def run_age(cache):
        ev = SimulatedEvaluator(arch_eval, num_workers=NUM_WORKERS, cache=cache)
        history = AgE(space, ev, population_size=4, sample_size=2, seed=13).search(
            max_evaluations=60
        )
        return history, ev

    def timed_age(cache_on: bool):
        run_age(EvaluationCache() if cache_on else None)

    history_off, ev_off = run_age(None)
    cache = EvaluationCache()
    history_on, ev_on = run_age(cache)
    # Equivalence gate: memoization must not change the search history.
    assert history_to_dict(history_on) == history_to_dict(history_off)
    assert cache.hits > 0

    entries.append(
        BenchEntry(
            "age_cached_search",
            median_time(lambda: timed_age(False), repeats=3),
            median_time(lambda: timed_age(True), repeats=3),
            meta={
                "evaluations": len(history_on),
                "cache_hit_rate": round(cache.hit_rate, 4),
                "cache_hits": cache.hits,
                "busy_minutes_off": round(computed_minutes(ev_off), 3),
                "busy_minutes_on": round(computed_minutes(ev_on), 3),
            },
        )
    )

    out = write_bench_json(REPO_ROOT / "BENCH_evaluator.json", "evaluator", entries)
    for e in entries:
        print(f"{e.name}: ref {e.reference_s * 1e3:.2f} ms -> "
              f"opt {e.optimized_s * 1e3:.2f} ms ({e.speedup:.1f}x)")
    print(f"cache hit-rate: {cache.hit_rate:.0%} ({cache.hits} hits)")
    print(f"written: {out}")


if __name__ == "__main__":
    pytest.main([__file__, "-s"])

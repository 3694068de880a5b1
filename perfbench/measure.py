"""Run one seeded campaign of a workload and check its outputs.

Started by ``run.py`` as a fresh interpreter whose environment pins every
BLAS/OpenMP pool to one thread before numpy loads.  It writes one JSON
document (``--out``) holding the raw measurements, the spans and self times
of the traced run, the correctness verdicts and the host probe; ``run.py``
turns the documents of a run's campaigns into the reported metrics.

One process measures one seeded campaign: it runs it untraced and, with
``--trace 1``, once more traced, which gives the tracing overhead and
proves the wrappers leave the seeded history unchanged.  A fresh process
per campaign makes ``import repro.campaign`` plus the untraced
``build_campaign`` one set-up sample, and the process's high-water RSS
that campaign's peak.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

__all__ = ["DecideProbe", "host_probe", "history_fingerprint", "run_campaign"]


#: Probe samples taken before and after each campaign.
PROBE_REPEATS = 7


def host_probe() -> float:
    """Seconds for a fixed numpy + pure-Python workload that uses no repo
    code: a drift in it between runs is the host, not the program."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((160, 160))
    for _ in range(20):
        a = np.tanh(a @ a.T / 160.0)
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - t0


def host_probes() -> list[float]:
    return [host_probe() for _ in range(PROBE_REPEATS)]


class DecideProbe:
    """Times the manager's decision: from ``gather()`` returning to the
    next ``submit()`` call, i.e. how long an idle worker waits."""

    def __init__(self, evaluator) -> None:
        self.samples: list[float] = []
        self._returned: float | None = None
        gather, submit = evaluator.gather, evaluator.submit
        clock = time.perf_counter

        def timed_gather():
            jobs = gather()
            self._returned = clock()
            return jobs

        def timed_submit(configs):
            if self._returned is not None:
                self.samples.append(clock() - self._returned)
                self._returned = None
            return submit(configs)

        evaluator.gather = timed_gather
        evaluator.submit = timed_submit


def history_fingerprint(history) -> str:
    """Canonical JSON of a history, simulated timestamps and metadata included."""
    from repro.core.serialization import record_to_dict

    return json.dumps([record_to_dict(r, rich_metadata=True) for r in history], sort_keys=True)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_campaign(workload: Workload, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Build and run one campaign; returns (measurements, campaign, metrics, history)."""
    from repro.campaign import JsonlEventLog, MetricsAggregator, build_campaign

    workdir.mkdir(parents=True, exist_ok=True)
    config = workload.make_config(seed, str(workdir) if workload.durable else None)
    log = None
    t_build = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
            campaign = tracer.span("campaign.build", build_campaign, config)
            tracer.attach(campaign.evaluator)
        else:
            campaign = build_campaign(config)
        build_s = time.perf_counter() - t_build
        metrics = campaign.subscribe(MetricsAggregator())
        if workload.durable:
            log = campaign.subscribe(JsonlEventLog(workdir / "events.jsonl"))
        probe = DecideProbe(campaign.evaluator)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        if tracer is not None:
            history = tracer.span("campaign.run", campaign.run)
        else:
            history = campaign.run()
        wall = time.perf_counter() - t0
    finally:
        if log is not None:
            log.close()
        if tracer is not None:
            tracer.uninstall()
    cpu = _cpu_seconds() - cpu0
    cache = getattr(campaign.evaluator, "cache", None)
    m = {
        "seed": seed,
        "traced": tracer is not None,
        "evals": len(history),
        "budget": config.max_evaluations,
        "build_s": build_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "decide_s": probe.samples,
        "utilization": metrics.utilization,
        "best_objective": max(r.objective for r in history) if len(history) else math.nan,
        "submitted": metrics.counts.get("JobSubmitted", 0),
        "retries": metrics.num_retries,
        "failures": getattr(campaign.evaluator, "num_failures", 0),
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_lookups": (cache.hits + cache.misses) if cache is not None else 0,
        "jsonl_bytes": (workdir / "events.jsonl").stat().st_size if log is not None else 0,
        "objectives_ok": all(
            math.isfinite(r.objective) and 0.0 <= r.objective <= 1.0 for r in history
        ),
    }
    return m, campaign, metrics, history


def check_durability(campaign, metrics, history, workdir: Path) -> dict[str, bool]:
    """The final checkpoint resumes to the live history, and the JSONL log
    replays to the live utilization."""
    from repro.campaign import replay_metrics, resume_campaign

    resumed = resume_campaign(campaign.config.checkpoint.path)
    resumed_from = len(resumed.search.history)
    replayed = replay_metrics(workdir / "events.jsonl")
    return {
        "checkpoint_resume": 0 < resumed_from < len(history)
        and history_fingerprint(resumed.run()) == history_fingerprint(history),
        "jsonl_replay": abs(replayed.utilization - metrics.utilization) <= 1e-12
        and replayed.num_jobs_done == metrics.num_jobs_done,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="SearchConfig.seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import repro.campaign  # noqa: F401  (with the build: one set-up sample)

    import_s = time.perf_counter() - t0
    from numpy import __version__ as numpy_version

    probe_before = host_probes()
    workdir = args.workdir / "untraced"
    m, campaign, metrics, history = run_campaign(workload, args.seed, workdir)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runs = [m]
    checks = {"budget": m["evals"] == m["budget"], "objectives": m["objectives_ok"]}
    if workload.durable:
        checks.update(check_durability(campaign, metrics, history, workdir))
    recorder = SpanRecorder()
    if args.trace:
        tracer = Tracer(recorder)
        mt, _, _, traced_history = run_campaign(workload, args.seed, args.workdir / "traced", tracer)
        runs.append(mt)
        checks["traced_budget"] = mt["evals"] == mt["budget"]
        checks["traced_identical"] = history_fingerprint(traced_history) == history_fingerprint(history)

    out = {
        "seed": args.seed,
        "import_s": import_s,
        "runs": runs,
        "checks": checks,
        "host_probe_s": probe_before + host_probes(),
        "numpy": numpy_version,
        "maxrss_kb": maxrss_kb,
    }
    if args.trace:
        out["self_times"] = {k: list(v) for k, v in self_times(recorder).items()}
        out["counters"] = recorder.counters
        out["steps"] = sum(
            1
            for name, parent in zip(recorder.names, recorder.parents)
            if name == "nn.adam" and parent >= 0 and recorder.names[parent] == "dataparallel.fit"
        )
        out["spans"] = recorder.to_dict()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Campaign benchmark: seeded AgE / AgEBO campaigns through ``repro.campaign``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload age_train --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced campaigns, with
every time scaled to a reference host speed;
``--trace 1`` runs each campaign untraced and then traced and prints the
per-layer metrics (self time and call counts of every wrapped layer, plus
the tracing overhead).  Every run also checks the program's outputs (exact
evaluation budget, objectives finite in [0, 1], traced history identical
to untraced, checkpoint resume and JSONL replay on ``agebo_ask``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it are metadata
(host interference and host factors, unnormalized metrics, BLAS pinning,
sample counts).  Traced runs write their spans to ``.perfbench/`` in the
repository root.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import SPAN_NAMES, tail_percentile  # noqa: E402
from workloads import WORKLOADS, campaign_seeds  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: One BLAS / OpenMP thread: a second spinning OpenBLAS thread doubles CPU
#: time per evaluation on these small matrices without saving wall time.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3  # campaign processes give one each; probes top up
#: Median host-probe time (``measure.host_probe``) on the host the bounds
#: were tuned on: timings are reported at that host speed (see README).
REFERENCE_PROBE_S = 0.028
SETUP_TIMEOUT_S = 40
MEASURE_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("decide_p50_ms", "ms"),
    ("decide_tail_ms", "ms"),
    ("worker_utilization", "ratio"),
    ("best_objective", "accuracy"),
    ("cpu_s_per_eval", "s"),
    ("peak_rss_mb", "MB"),
]

# Spans reported as ``<stem>.calls`` and ``<stem>.s`` (self time).
_CALL_STEMS = [
    "bo.ask", "bo.tell", "bo.forest_fit", "bo.forest_predict", "bo.sample",
    "searchspace.mutate", "core.evaluate", "core.checkpoint",
    "dataparallel.fit", "nn.compile", "nn.loss_and_grad", "nn.adam", "nn.predict",
    "workflow.submit", "workflow.gather", "campaign.emit",
]  # fmt: skip
PER_LAYER = (
    [(f"{stem}.{kind}", unit) for stem in _CALL_STEMS for kind, unit in (("calls", "count"), ("s", "s"))]
    + [
        ("bo.ask.points", "count"),
        ("core.checkpoint.bytes", "bytes"),
        ("dataparallel.steps", "count"),
        ("workflow.useful_ratio", "ratio"),
        ("workflow.cache.hits", "count"),
        ("workflow.cache.lookups", "count"),
        ("workflow.retries", "count"),
        ("workflow.failures", "count"),
        ("workflow.failed_share", "ratio"),
        ("workflow.decide.samples", "count"),
        ("campaign.run.s", "s"),
        ("campaign.manager.s", "s"),
        ("campaign.build.s", "s"),
        ("campaign.jsonl.bytes", "bytes"),
        ("datasets.load.s", "s"),
        ("setup.import.s", "s"),
        ("trace.overhead_pct", "%"),
        ("trace.overhead_cpu_pct", "%"),
        ("trace.spans", "count"),
    ]
)


def _steal_counters() -> tuple[int, int] | None:
    """(steal jiffies, busy jiffies incl. steal) from /proc/stat, if any."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    user, nice, system, idle, iowait, irq, softirq, steal = (int(v) for v in fields[1:9])
    return steal, user + nice + system + irq + softirq + steal


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_setup(workload: str, seed: int, env) -> float:
    """One set-up sample (import + build) from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _measure(workload: str, seed: int, trace: int, workdir: Path, env) -> dict:
    """Run one seeded campaign in a fresh interpreter; its JSON result."""
    out = workdir / "result.json"
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "measure.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace),
            "--workdir", str(workdir), "--out", str(out),
        ],
        env=env, cwd=ROOT, timeout=MEASURE_TIMEOUT_S,
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"measurement of seed {seed} exited with {proc.returncode}")
    return json.loads(out.read_text())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def host_factor(res: dict) -> float:
    """How much slower the host ran around one campaign than the reference:
    the median of its probe samples over ``REFERENCE_PROBE_S``."""
    return median(res["host_probe_s"]) / REFERENCE_PROBE_S


def end_to_end(results: list[dict], setups: list[float], normalize: bool = True) -> dict[str, float]:
    """Rates are totals over the run's campaigns.  The decision median pools
    every sample; the tail is taken per campaign, then the median over
    campaigns, so one burst of host steal at the end of one campaign (where
    BO asks are slowest) does not set it.  With ``normalize``, every time
    is divided by its campaign's host factor."""
    runs = []
    for res in results:
        h = host_factor(res) if normalize else 1.0
        for m in res["runs"]:
            if not m["traced"]:
                runs.append(
                    dict(m, wall_s=m["wall_s"] / h, cpu_s=m["cpu_s"] / h,
                         decide_s=[s / h for s in m["decide_s"]])
                )  # fmt: skip
    h_setup = median(host_factor(res) for res in results) if normalize else 1.0
    evals = sum(m["evals"] for m in runs)
    return {
        "setup_s": median(setups) / h_setup,
        "evals_per_s": evals / sum(m["wall_s"] for m in runs),
        "decide_p50_ms": 1e3 * median(s for m in runs for s in m["decide_s"]),
        "decide_tail_ms": 1e3 * median(tail_percentile(m["decide_s"])[1] for m in runs),
        "worker_utilization": sum(m["utilization"] for m in runs) / len(runs),
        "best_objective": sum(m["best_objective"] for m in runs) / len(runs),
        "cpu_s_per_eval": sum(m["cpu_s"] for m in runs) / evals,
        "peak_rss_mb": median(res["maxrss_kb"] for res in results) / 1024.0,
    }


def per_layer(results: list[dict]) -> dict[str, float]:
    """Self times and counters summed over the traced campaigns."""
    traced = [m for res in results for m in res["runs"] if m["traced"]]
    untraced = [m for res in results for m in res["runs"] if not m["traced"]]
    st = {name: [0, 0.0] for name in SPAN_NAMES}
    counters: dict[str, float] = {}
    for res in results:
        for name, (calls, secs) in res["self_times"].items():
            st[name][0] += calls
            st[name][1] += secs
        for key, value in res["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out: dict[str, float] = {}
    for stem in _CALL_STEMS:
        out[f"{stem}.calls"], out[f"{stem}.s"] = st[stem]
    trained = sum(m["submitted"] - m["cache_hits"] + m["retries"] for m in traced)
    eps, cpu = (
        {
            kind: _ratio(sum(m["evals"] for m in ms), sum(m[key] for m in ms))
            for kind, ms in (("untraced", untraced), ("traced", traced))
        }
        for key in ("wall_s", "cpu_s")
    )
    out.update(
        {
            "bo.ask.points": counters.get("bo.ask.points", 0),
            "core.checkpoint.bytes": counters.get("core.checkpoint.bytes", 0),
            "dataparallel.steps": sum(res["steps"] for res in results),
            "workflow.useful_ratio": _ratio(sum(m["evals"] for m in traced), trained),
            "workflow.cache.hits": sum(m["cache_hits"] for m in traced),
            "workflow.cache.lookups": sum(m["cache_lookups"] for m in traced),
            "workflow.retries": sum(m["retries"] for m in traced),
            "workflow.failures": sum(m["failures"] for m in traced),
            "workflow.failed_share": _ratio(sum(m["failures"] for m in traced), trained),
            "workflow.decide.samples": sum(len(m["decide_s"]) for m in untraced),
            "campaign.run.s": sum(m["wall_s"] for m in traced),
            "campaign.manager.s": st["campaign.run"][1],
            "campaign.build.s": st["campaign.build"][1],
            "campaign.jsonl.bytes": sum(m["jsonl_bytes"] for m in traced),
            "datasets.load.s": st["datasets.load"][1],
            "setup.import.s": median(res["import_s"] for res in results),
            "trace.overhead_pct": 100.0 * (_ratio(eps["untraced"], eps["traced"]) - 1.0),
            "trace.overhead_cpu_pct": 100.0 * (_ratio(cpu["untraced"], cpu["traced"]) - 1.0),
            "trace.spans": sum(len(res["spans"]["names"]) for res in results),
        }
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "campaign" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # A traced run measures each seed twice (untraced, then traced).  The
    # campaign count follows from --seconds alone, never from the host.
    per_seed = workload.campaign_seconds * (2 if args.trace else 1)
    seeds = campaign_seeds(args.seed, min(16, max(1, int(args.seconds // per_seed))))

    env = _child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    steal0 = _steal_counters()
    try:
        results = [
            _measure(workload.name, seed, args.trace, workdir / f"s{seed}", env)
            for seed in seeds
        ]
        setups = [res["import_s"] + res["runs"][0]["build_s"] for res in results]
        if not args.trace:
            setups += [
                _run_setup(workload.name, args.seed, env)
                for _ in range(SETUP_SAMPLES - len(setups))
            ]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        steal1 = _steal_counters()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(results) if args.trace else end_to_end(results, setups)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    checks = {f"seed{res['seed']}.{k}": ok for res in results for k, ok in res["checks"].items()}
    runs = [m for res in results for m in res["runs"]]
    untraced = [m for m in runs if not m["traced"]]
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "campaign_seeds": seeds,
        "setup_samples": setups,
        "evals_per_s_per_campaign": [m["evals"] / m["wall_s"] for m in untraced],
        "decide_samples": [len(m["decide_s"]) for m in untraced],
        "decide_tail_percentile": [tail_percentile(m["decide_s"])[0] for m in untraced],
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": results[0]["numpy"],
            "steal_share": (
                _ratio(steal1[0] - steal0[0], steal1[1] - steal0[1])
                if steal0 and steal1
                else None
            ),
            "probe_s": [res["host_probe_s"] for res in results],
            "host_factor": [host_factor(res) for res in results],
            "pinned_env": PINNED_ENV,
        },
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
    }
    if not args.trace:
        meta["unnormalized"] = end_to_end(results, setups, normalize=False)
    if args.trace:
        (OUT / f"trace-{tag}.json").write_text(json.dumps({"meta": meta, "campaigns": results}))
        total = metrics["campaign.run.s"] or 1.0
        shares = {
            stem: round(metrics[f"{stem}.s"] / total, 4)
            for stem in _CALL_STEMS + ["campaign.manager"]
            if metrics[f"{stem}.s"]
        }
        meta["self_time_share"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": bool(checks) and all(checks.values()),
                "attempted": sum(m["submitted"] + m["retries"] for m in runs),
                "failed": sum(m["failures"] for m in runs),
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

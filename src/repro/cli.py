"""Command-line interface: run searches and baselines without writing code.

The ``search`` command is a thin adapter: argparse flags are folded into a
typed :class:`repro.campaign.CampaignConfig` and handed to
:func:`repro.campaign.build_campaign` (or
:func:`~repro.campaign.resume_campaign`), which does all the wiring.
Checkpoints embed the campaign config itself, so ``--resume`` restores
every knob — present and future — without a pinned argument list.

Examples
--------
List the benchmarks::

    python -m repro.cli datasets

Run a miniature AgEBO search::

    python -m repro.cli search --dataset covertype --method AgEBO \
        --max-evaluations 40 --workers 8 --epochs 4

Run the AgE baseline with 4 static ranks::

    python -m repro.cli search --dataset airlines --method AgE --num-ranks 4

Checkpoint a campaign and resume it after a crash (continues to a
bit-identical final history)::

    python -m repro.cli search --dataset covertype --checkpoint camp.ckpt \
        --max-evaluations 64
    python -m repro.cli search --resume camp.ckpt --max-evaluations 64

Record the structured event stream of a campaign::

    python -m repro.cli search --dataset covertype --events events.jsonl

(``--resume`` with ``--events`` continues that log from the checkpoint.)

Fit the AutoGluon-like ensemble::

    python -m repro.cli baseline --dataset albert --system autogluon
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import utilization_summary
from repro.campaign import (
    CampaignConfig,
    CheckpointConfig,
    EvaluatorConfig,
    FaultConfig,
    JsonlEventLog,
    ProgressReporter,
    SearchConfig,
    TrainingConfig,
    build_campaign,
    resume_campaign,
)
from repro.core.variants import AGEBO_VARIANTS
from repro.datasets import DATASET_SPECS, dataset_names
from repro.workflow.cache import CACHE_MODES
from repro.workflow.evaluator import EVALUATOR_BACKENDS

__all__ = ["main", "build_parser", "config_from_args"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AgEBO-Tabular reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the available benchmarks")

    p_search = sub.add_parser("search", help="run a NAS / joint search")
    p_search.add_argument("--dataset", choices=dataset_names(), default=None,
                          help="required unless --resume restores it")
    p_search.add_argument(
        "--method", choices=("AgE",) + AGEBO_VARIANTS, default="AgEBO"
    )
    p_search.add_argument("--num-ranks", type=int, default=1,
                          help="static ranks for --method AgE")
    p_search.add_argument("--size", type=int, default=2000, help="data set rows")
    p_search.add_argument("--num-nodes", type=int, default=5,
                          help="architecture-space depth (paper: 10)")
    p_search.add_argument("--workers", type=int, default=8)
    p_search.add_argument("--epochs", type=int, default=5)
    p_search.add_argument("--max-evaluations", type=int, default=50)
    p_search.add_argument("--wall-minutes", type=float, default=None,
                          help="simulated wall-clock budget")
    p_search.add_argument("--population", type=int, default=10)
    p_search.add_argument("--sample", type=int, default=3)
    p_search.add_argument("--kappa", type=float, default=0.001)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--dtype", choices=("float32", "float64"), default=TrainingConfig.dtype,
                          help="training precision (default: %(default)s; float64 is the oracle)")
    p_search.add_argument("--backend", choices=EVALUATOR_BACKENDS,
                          default="simulated",
                          help="evaluator backend (simulated clock, thread pool, "
                               "or true multi-core process pool)")
    p_search.add_argument("--cache", choices=CACHE_MODES, default="off",
                          help="evaluation memoization: 'exact' serves duplicate "
                               "configurations from memo without re-training")
    p_search.add_argument("--top", type=int, default=5, help="top-k models to print")
    p_search.add_argument("--save-history", type=str, default=None,
                          help="write the search history to this JSON file")
    p_search.add_argument("--report", type=str, default=None,
                          help="write a markdown campaign report to this file")
    # Structured events
    p_search.add_argument("--events", type=str, default=None,
                          help="write the campaign's JSONL event log to this file "
                               "(with --resume: continue it from the checkpoint)")
    p_search.add_argument("--progress", action="store_true",
                          help="print per-evaluation progress lines")
    # Fault tolerance
    p_search.add_argument("--on-error", choices=("raise", "penalize", "retry"),
                          default="penalize",
                          help="evaluation-failure policy (default: penalize)")
    p_search.add_argument("--max-retries", type=int, default=2,
                          help="retries before penalizing (--on-error retry)")
    p_search.add_argument("--retry-backoff", type=float, default=0.0,
                          help="base exponential backoff between retries (minutes)")
    p_search.add_argument("--timeout", type=float, default=None,
                          help="per-job timeout in simulated minutes")
    p_search.add_argument("--failure-objective", type=float, default=0.0,
                          help="objective recorded for penalized evaluations")
    # Fault injection (testing / demos)
    p_search.add_argument("--crash-prob", type=float, default=0.0)
    p_search.add_argument("--hang-prob", type=float, default=0.0)
    p_search.add_argument("--corrupt-prob", type=float, default=0.0)
    p_search.add_argument("--hang-factor", type=float, default=20.0)
    p_search.add_argument("--fault-seed", type=int, default=0)
    # Checkpoint / resume
    p_search.add_argument("--checkpoint", type=str, default=None,
                          help="write a resumable checkpoint to this file")
    p_search.add_argument("--checkpoint-every", type=int, default=1,
                          help="checkpoint every N completed iterations")
    p_search.add_argument("--resume", type=str, default=None,
                          help="resume a checkpointed campaign (the campaign "
                               "config is restored from the checkpoint; budgets "
                               "may be extended)")

    p_base = sub.add_parser("baseline", help="run an AutoML baseline")
    p_base.add_argument("--dataset", choices=dataset_names(), required=True)
    p_base.add_argument("--system", choices=("autogluon", "autopytorch"),
                        default="autogluon")
    p_base.add_argument("--size", type=int, default=2000)
    p_base.add_argument("--seed", type=int, default=0)
    return parser


def config_from_args(args) -> CampaignConfig:
    """Fold the ``search`` subcommand's flags into a typed campaign config."""
    return CampaignConfig(
        dataset=args.dataset,
        size=args.size,
        num_nodes=args.num_nodes,
        max_evaluations=args.max_evaluations,
        wall_time_minutes=args.wall_minutes,
        search=SearchConfig(
            method=args.method,
            population_size=args.population,
            sample_size=args.sample,
            seed=args.seed,
            num_ranks=args.num_ranks,
            kappa=args.kappa,
        ),
        training=TrainingConfig(
            epochs=args.epochs,
            nominal_epochs=20,
            dtype=args.dtype,
        ),
        evaluator=EvaluatorConfig(
            backend=args.backend, num_workers=args.workers, cache=args.cache
        ),
        faults=FaultConfig(
            on_error=args.on_error,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            timeout=args.timeout,
            failure_objective=args.failure_objective,
            crash_prob=args.crash_prob,
            hang_prob=args.hang_prob,
            corrupt_prob=args.corrupt_prob,
            hang_factor=args.hang_factor,
            fault_seed=args.fault_seed,
        ),
        checkpoint=CheckpointConfig(path=args.checkpoint, every=args.checkpoint_every),
    )


def _cmd_datasets(out) -> int:
    for name in dataset_names():
        spec = DATASET_SPECS[name]
        print(
            f"{name:<10} {spec.n_features:>3} features, {spec.n_classes:>3} classes, "
            f"nominal {spec.nominal_rows:,} rows",
            file=out,
        )
    return 0


def _cmd_search(args, out) -> int:
    if args.resume:
        # Budgets, checkpointing and outputs come from this invocation;
        # everything else is restored from the embedded campaign config.
        try:
            campaign = resume_campaign(
                args.resume,
                max_evaluations=args.max_evaluations,
                wall_time_minutes=args.wall_minutes,
                checkpoint=CheckpointConfig(
                    path=args.checkpoint, every=args.checkpoint_every
                ),
            )
        except FileNotFoundError:
            raise SystemExit(f"search: checkpoint not found: {args.resume}")
        except ValueError as exc:
            raise SystemExit(f"search: cannot resume from {args.resume}: {exc}")
        print(f"resuming campaign from {args.resume}", file=out)
    else:
        if args.dataset is None:
            raise SystemExit("search: --dataset is required unless --resume restores it")
        try:
            campaign = build_campaign(config_from_args(args))
        except ValueError as exc:
            raise SystemExit(f"search: {exc}")
    print(campaign.dataset.summary(), file=out)

    event_log = None
    if args.events:
        # A resumed campaign continues its own log from the checkpoint.
        try:
            log = (
                JsonlEventLog.resume(args.events, len(campaign.search.history))
                if args.resume
                else JsonlEventLog(args.events)
            )
        except ValueError as exc:
            raise SystemExit(f"search: {exc}")
        event_log = campaign.subscribe(log)
    if args.progress:
        campaign.subscribe(ProgressReporter(out=out))

    try:
        history = campaign.run()
    finally:
        if event_log is not None:
            event_log.close()

    evaluator = campaign.evaluator
    util = utilization_summary(evaluator)
    failures = f", {history.num_failures} penalized" if history.num_failures else ""
    clock = "simulated" if campaign.config.evaluator.backend == "simulated" else "wall-clock"
    cache_note = ""
    if evaluator.cache is not None:
        cache_note = (
            f", cache hit-rate {evaluator.cache.hit_rate:.0%} "
            f"({evaluator.cache.hits} hits)"
        )
    print(
        f"\n{history.label}: {len(history)} evaluations in "
        f"{evaluator.now:.1f} {clock} minutes "
        f"({util.utilization:.0%} utilization{failures}{cache_note})",
        file=out,
    )
    print(f"{'rank':<5} {'val acc':<9} {'bs':<5} {'lr':<9} {'n':<3} duration", file=out)
    for i, record in enumerate(history.top_k(args.top), start=1):
        hp = record.config.hyperparameters
        print(
            f"{i:<5} {record.objective:<9.4f} {hp['batch_size']:<5} "
            f"{hp['learning_rate']:<9.5f} {hp['num_ranks']:<3} "
            f"{record.duration:.1f} min",
            file=out,
        )
    if args.events:
        print(f"event log written to {args.events}", file=out)
    if args.save_history:
        from repro.core import save_history

        save_history(history, args.save_history)
        print(f"history written to {args.save_history}", file=out)
    if args.report:
        from pathlib import Path

        from repro.analysis import markdown_report

        Path(args.report).write_text(markdown_report(history, campaign.hp_space))
        print(f"report written to {args.report}", file=out)
    return 0


def _cmd_baseline(args, out) -> int:
    from repro.baselines import AutoGluonLike, AutoPyTorchLike
    from repro.datasets import load_dataset

    ds = load_dataset(args.dataset, size=args.size)
    print(ds.summary(), file=out)
    if args.system == "autogluon":
        system = AutoGluonLike(preset="medium", seed=args.seed).fit(ds)
        report = system.evaluate(ds)
        print(
            f"AutoGluon-like: val={report.validation_accuracy:.4f} "
            f"test={report.test_accuracy:.4f} "
            f"inference={report.inference_seconds * 1e3:.1f} ms "
            f"({report.n_base_models} base models)",
            file=out,
        )
    else:
        system = AutoPyTorchLike(n_candidates=8, min_epochs=2, max_epochs=10,
                                 seed=args.seed).fit(ds)
        print(
            f"Auto-PyTorch-like: best val={system.best_val_accuracy_:.4f} "
            f"config={system.best_config_}",
            file=out,
        )
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets(out)
    if args.command == "search":
        return _cmd_search(args, out)
    if args.command == "baseline":
        return _cmd_baseline(args, out)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())

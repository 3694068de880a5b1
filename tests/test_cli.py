"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


def test_datasets_command_lists_all():
    text = run_cli(["datasets"])
    for name in ("covertype", "airlines", "albert", "dionis"):
        assert name in text
    assert "355 classes" in text


def test_search_command_agebo_smoke():
    text = run_cli(
        [
            "search",
            "--dataset",
            "covertype",
            "--method",
            "AgEBO",
            "--size",
            "800",
            "--num-nodes",
            "2",
            "--epochs",
            "2",
            "--max-evaluations",
            "6",
            "--workers",
            "3",
            "--population",
            "4",
            "--sample",
            "2",
        ]
    )
    assert "AgEBO: " in text
    assert "evaluations in" in text
    assert "val acc" in text


def test_search_command_age_variant():
    text = run_cli(
        [
            "search",
            "--dataset",
            "airlines",
            "--method",
            "AgE",
            "--num-ranks",
            "2",
            "--size",
            "800",
            "--num-nodes",
            "2",
            "--epochs",
            "2",
            "--max-evaluations",
            "5",
            "--population",
            "4",
            "--sample",
            "2",
        ]
    )
    assert "AgE-2:" in text


def test_baseline_command_autopytorch():
    text = run_cli(
        ["baseline", "--dataset", "covertype", "--system", "autopytorch", "--size", "800"]
    )
    assert "Auto-PyTorch-like" in text
    assert "best val=" in text


def test_parser_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", "--dataset", "mnist"])


def test_parser_rejects_unknown_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", "--dataset", "covertype", "--method", "BOHB"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_search_requires_dataset_unless_resuming():
    with pytest.raises(SystemExit, match="--dataset"):
        main(["search", "--max-evaluations", "4"], out=io.StringIO())


def test_search_checkpoint_resume_round_trip(tmp_path):
    """--resume continues a checkpointed campaign to a history identical
    to the uninterrupted run, restoring --dataset etc. from the file."""
    base = [
        "search", "--dataset", "covertype", "--method", "AgEBO",
        "--size", "800", "--num-nodes", "2", "--epochs", "2",
        "--workers", "3", "--population", "4", "--sample", "2",
    ]
    full = tmp_path / "full.json"
    run_cli(base + ["--max-evaluations", "10", "--save-history", str(full)])

    ck = tmp_path / "camp.ckpt"
    run_cli(base + ["--max-evaluations", "5", "--checkpoint", str(ck)])

    resumed = tmp_path / "resumed.json"
    text = run_cli([
        "search", "--resume", str(ck),
        "--max-evaluations", "10", "--save-history", str(resumed),
    ])
    assert "resuming campaign" in text

    import json

    assert json.loads(full.read_text()) == json.loads(resumed.read_text())


def test_search_with_fault_injection_penalizes():
    text = run_cli([
        "search", "--dataset", "covertype", "--size", "800",
        "--num-nodes", "2", "--epochs", "2", "--max-evaluations", "8",
        "--workers", "3", "--population", "4", "--sample", "2",
        "--crash-prob", "0.4", "--fault-seed", "1", "--on-error", "penalize",
    ])
    assert "penalized" in text


def test_search_command_saves_history_and_report(tmp_path):
    hist = tmp_path / "h.json"
    rep = tmp_path / "r.md"
    text = run_cli(
        [
            "search", "--dataset", "covertype", "--method", "AgEBO",
            "--size", "800", "--num-nodes", "2", "--epochs", "2",
            "--max-evaluations", "6", "--workers", "3",
            "--population", "4", "--sample", "2",
            "--save-history", str(hist), "--report", str(rep),
        ]
    )
    assert hist.exists() and rep.exists()
    from repro.core import load_history

    loaded = load_history(hist)
    assert len(loaded) >= 6
    assert rep.read_text().startswith("# Search report")
    assert "history written" in text and "report written" in text


def test_resumed_search_continues_its_event_log(tmp_path):
    """--resume with --events cuts the first leg's log back to the
    checkpoint it resumes from and appends, so replaying the joined log
    gives the uninterrupted campaign's metrics.  Torn final lines in the
    journal and the log (a kill mid-write) are dropped."""
    from repro.campaign import replay_metrics

    base = [
        "search", "--dataset", "covertype", "--size", "300", "--num-nodes", "2",
        "--epochs", "2", "--workers", "3", "--population", "4", "--sample", "2",
        "--cache", "exact",
    ]  # fmt: skip
    full_log = tmp_path / "full.jsonl"
    run_cli(base + ["--max-evaluations", "12", "--events", str(full_log)])

    ck, log = tmp_path / "camp.ckpt", tmp_path / "camp.jsonl"
    run_cli(base + ["--max-evaluations", "8", "--checkpoint", str(ck), "--events", str(log)])
    for path in (ck, log):
        with open(path, "a") as fh:
            fh.write('{"torn": ')
    run_cli([
        "search", "--resume", str(ck), "--max-evaluations", "12", "--events", str(log),
    ])  # fmt: skip

    fields = (
        "num_jobs_done", "busy_worker_minutes", "utilization", "ring_comm_bytes",
        "num_cache_hits", "num_cache_stores",
    )  # fmt: skip
    joined, full = replay_metrics(log).summary(), replay_metrics(full_log).summary()
    assert full["ring_comm_bytes"] > 0 and full["num_jobs_done"] >= 12
    assert {f: joined[f] for f in fields} == {f: full[f] for f in fields}


def test_resume_refuses_an_event_log_of_another_campaign(tmp_path):
    base = [
        "search", "--dataset", "covertype", "--size", "300", "--num-nodes", "2",
        "--epochs", "1", "--workers", "2", "--population", "3", "--sample", "2",
    ]  # fmt: skip
    ck, other = tmp_path / "camp.ckpt", tmp_path / "other.jsonl"
    run_cli(base + ["--max-evaluations", "6", "--checkpoint", str(ck)])
    run_cli(base + ["--max-evaluations", "2", "--events", str(other)])
    with pytest.raises(SystemExit, match="does not belong to this checkpoint"):
        main(["search", "--resume", str(ck), "--max-evaluations", "8", "--events", str(other)],
             out=io.StringIO())  # fmt: skip

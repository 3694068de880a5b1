"""Persistence for search campaigns and trained models.

A 3-hour 129-node campaign must be inspectable offline and resumable; this
module serializes :class:`SearchHistory` to JSON (architecture vectors,
hyperparameters, objectives, cluster timings, scalar metadata) and model
weights to ``.npz``.  Loaded histories feed the same analysis tools as live
ones, and their records can warm-start a new search's population and BO.

It also defines the **checkpoint** format (version 3), an append-only
JSONL journal.  Its first line is a header: ``version``, ``algorithm`` and
``extra`` (the embedded campaign config).  Each checkpoint then appends one
line per job the search recorded since the last one (the fields of
:func:`~repro.workflow.jobs.job_to_dict`), in gather order, and one state
line, ``{"search": ...}``, holding only what cannot be rebuilt: RNG
states, counters, the clock, pending events, the running and waiting
ids, population positions and the jobs not delivered yet.  So a
checkpoint writes the new and live jobs, not the whole history.  The job
lines are the one stored copy of every finished evaluation; the history
(their order), the cache entries and the BO tell-history are rebuilt from
them on load.

The first checkpoint a search writes to a path rewrites the file whole
(tmp + rename); later ones append and flush.  A write cut short leaves a
torn tail, and :func:`load_checkpoint` reads the last complete state line:
it drops an unparsable final line and ignores job lines after that state
line.  A file cut inside its header, or before its first state line, is
refused.  A killed campaign thus resumes bit-identically via
:func:`repro.campaign.resume_campaign` or the CLI ``--resume`` flag.
Version-1 and version-2 checkpoints (single JSON documents) are no longer
readable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import ModelConfig
from repro.core.results import EvaluationRecord, SearchHistory
from repro.nn.graph_network import GraphNetwork
from repro.workflow.jobs import job_to_dict, jsonable_metadata

__all__ = [
    "history_to_dict",
    "history_from_dict",
    "record_to_dict",
    "record_from_dict",
    "save_history",
    "load_history",
    "save_checkpoint",
    "load_checkpoint",
    "save_model_weights",
    "load_model_weights",
    "CHECKPOINT_VERSION",
]

_FORMAT_VERSION = 1
CHECKPOINT_VERSION = 3


def record_to_dict(record: EvaluationRecord, rich_metadata: bool = False) -> dict[str, Any]:
    """JSON-safe representation of one evaluation record.

    ``rich_metadata=True`` (checkpoints) additionally keeps list-of-scalar
    metadata such as per-epoch accuracy curves; the default matches the
    version-1 history format (scalars only).
    """
    return {
        "arch": record.config.arch.tolist(),
        "hyperparameters": record.config.hyperparameters,
        "objective": record.objective,
        "duration": record.duration,
        "submit_time": record.submit_time,
        "start_time": record.start_time,
        "end_time": record.end_time,
        "metadata": jsonable_metadata(record.metadata, lists=rich_metadata),
    }


def record_from_dict(row: dict[str, Any]) -> EvaluationRecord:
    """Inverse of :func:`record_to_dict`."""
    return EvaluationRecord(
        config=ModelConfig(
            arch=np.asarray(row["arch"], dtype=np.int64),
            hyperparameters=dict(row["hyperparameters"]),
        ),
        objective=float(row["objective"]),
        duration=float(row["duration"]),
        submit_time=float(row["submit_time"]),
        start_time=float(row["start_time"]),
        end_time=float(row["end_time"]),
        metadata=dict(row.get("metadata", {})),
    )


def history_to_dict(history: SearchHistory) -> dict[str, Any]:
    """JSON-safe representation of a history (scalar metadata only)."""
    return {
        "version": _FORMAT_VERSION,
        "label": history.label,
        "records": [record_to_dict(record) for record in history.records],
    }


def history_from_dict(data: dict[str, Any]) -> SearchHistory:
    """Inverse of :func:`history_to_dict`."""
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported history format version {data.get('version')!r}")
    history = SearchHistory(label=data.get("label", ""))
    for row in data["records"]:
        history.add(record_from_dict(row))
    return history


def save_history(history: SearchHistory, path: str | Path) -> Path:
    """Write a history to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(history_to_dict(history), indent=1))
    return path


def load_history(path: str | Path) -> SearchHistory:
    """Read a history saved by :func:`save_history`."""
    return history_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------- #
# Checkpoints: the full, resumable search state
# --------------------------------------------------------------------- #
def save_checkpoint(search: Any, path: str | Path) -> Path:
    """Write the checkpoint state of a search to the journal at ``path``.

    ``search`` is any :class:`~repro.core.search.AgingEvolutionBase`
    subclass.  The first write of a search to ``path`` (or any write after
    the file changed under it) replaces the file atomically with the
    header, a line per history job and the state line; every later one
    appends the new history jobs and a state line, then flushes.  A crash
    mid-append leaves a torn tail that :func:`load_checkpoint` drops, so
    the last good checkpoint survives.  The search's
    ``checkpoint_metadata`` goes into the header's ``extra`` verbatim, for
    callers such as the CLI that rebuild the dataset/space context on
    resume.
    """
    target = os.path.abspath(path)
    journal, search._journal = search._journal, None
    jobs = search.history_jobs
    if journal is not None and journal[0] == target and journal[2] == _identity(target):
        start, file, mode, text = journal[1], target, "a", ""
    else:
        header = {
            "version": CHECKPOINT_VERSION,
            "algorithm": type(search).__name__,
            "extra": search.checkpoint_metadata,
        }
        start, file, mode, text = 0, target + ".tmp", "w", _line(header)
    text += "".join(_line(job_to_dict(job)) for job in jobs[start:])
    text += _line({"search": search.state_dict()})
    with open(file, mode) as fh:
        fh.write(text)
        fh.flush()
        identity = _identity(fh.fileno())
    if file != target:
        os.replace(file, target)
    search._journal = (target, len(jobs), identity)
    return Path(path)


def _line(row: dict[str, Any]) -> str:
    return json.dumps(row, separators=(",", ":")) + "\n"


def _identity(file: str | int) -> tuple[int, int] | None:
    """(inode, size) of a path or an open file descriptor (None if the
    path is missing): an append goes only to the file the last write left."""
    try:
        st = os.stat(file)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read a checkpoint journal written by :func:`save_checkpoint`.

    Returns ``{"version", "algorithm", "extra", "search"}``; ``"search"``
    is the last complete state line with ``"history"`` (the job ids of the
    job lines before it, in order) added and the evaluator's ``"jobs"``
    holding the whole job table, in job id order.
    """
    lines = Path(path).read_text().split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        if len(lines) == 1:
            raise ValueError(f"checkpoint {path} is cut inside its header") from None
        raise ValueError(f"{path} is not a checkpoint journal") from None
    version = header.get("version") if isinstance(header, dict) else None
    if version in (1, 2):
        raise ValueError(
            f"checkpoint {path} has format version {version}, which this build no "
            f"longer reads; re-run the campaign to write a version-{CHECKPOINT_VERSION} "
            "checkpoint"
        )
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    rows: list[dict[str, Any]] = []
    search, num_rows = None, 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):  # unterminated: a write cut short
                break
            raise ValueError(f"{path}:{lineno}: unreadable checkpoint line") from None
        if not isinstance(row, dict):
            raise ValueError(f"{path}:{lineno}: not a checkpoint line")
        if "search" in row:
            search, num_rows = row["search"], len(rows)
        else:
            rows.append(row)
    if search is None:
        raise ValueError(f"{path} holds no complete search checkpoint")
    rows = rows[:num_rows]
    search["history"] = [row["job_id"] for row in rows]
    evaluator = search["evaluator"]
    evaluator["jobs"] = sorted(rows + evaluator["jobs"], key=lambda row: row["job_id"])
    return {
        "version": version,
        "algorithm": header.get("algorithm"),
        "extra": header.get("extra", {}),
        "search": search,
    }


def save_model_weights(model: GraphNetwork, path: str | Path) -> Path:
    """Write a network's parameters to ``.npz`` (ordered as parameters())."""
    path = Path(path)
    arrays = {f"param_{i}": w for i, w in enumerate(model.get_weights())}
    np.savez(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_model_weights(model: GraphNetwork, path: str | Path) -> GraphNetwork:
    """Load ``.npz`` weights into a structurally identical network."""
    with np.load(Path(path)) as data:
        weights = [data[f"param_{i}"] for i in range(len(data.files))]
    model.set_weights(weights)
    return model

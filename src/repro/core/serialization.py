"""Persistence for search campaigns and trained models.

A 3-hour 129-node campaign must be inspectable offline and resumable; this
module serializes :class:`SearchHistory` to JSON (architecture vectors,
hyperparameters, objectives, cluster timings, scalar metadata) and model
weights to ``.npz``.  Loaded histories feed the same analysis tools as live
ones, and their records can warm-start a new search's population and BO.

It also defines the **checkpoint** schema (version 2): the campaign
config plus the state that cannot be derived — numpy RNG states, iteration
counters, and the simulated evaluator's clock, queues, pending events and
job table.  The job table is the one stored copy of every evaluation; the
history (job ids in gather order), the population (positions into the
history), the cache entries and the BO tell-history are rebuilt from it on
load.  Checkpoints are written atomically, so a killed campaign resumes
bit-identically via :func:`repro.campaign.resume_campaign` or the CLI
``--resume`` flag.  Version-1 checkpoints, which stored every evaluation
up to four times, are no longer readable.
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
from repro.workflow.jobs import jsonable_metadata

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
CHECKPOINT_VERSION = 2


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
def save_checkpoint(search: Any, path: str | Path, extra: dict[str, Any] | None = None) -> Path:
    """Atomically write the checkpoint state of a search to ``path``.

    ``search`` is any :class:`~repro.core.search.AgingEvolutionBase`
    subclass exposing ``state_dict()``.  The file is written to a ``.tmp``
    sibling and renamed, so a crash mid-checkpoint never corrupts the last
    good checkpoint.  ``extra`` (or the search's ``checkpoint_metadata``
    attribute) is stored verbatim for callers such as the CLI that need to
    rebuild the dataset/space context on resume.
    """
    path = Path(path)
    data = {
        "version": CHECKPOINT_VERSION,
        "algorithm": type(search).__name__,
        "search": search.state_dict(),
    }
    metadata = extra if extra is not None else getattr(search, "checkpoint_metadata", None)
    if metadata:
        data["extra"] = metadata
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    data = json.loads(Path(path).read_text())
    if data.get("version") == 1:
        raise ValueError(
            f"checkpoint {path} has format version 1, which this build no longer "
            f"reads; re-run the campaign to write a version-{CHECKPOINT_VERSION} "
            "checkpoint"
        )
    if data.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {data.get('version')!r}")
    if "search" not in data:
        raise ValueError(f"{path} is not a search checkpoint")
    return data


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

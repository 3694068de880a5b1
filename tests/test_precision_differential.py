"""Precision differential: float32 (the default) against the float64 oracle.

Campaigns of the ``tools/history_digest.py`` shape (covertype, 300 rows,
faults off, cache off), AgE and AgEBO over seeds 0-9, each run once at
float32 and once at float64.  Training precision may move a recorded
objective only where a validation logit sits on a near-tie, so:

- configurations agree record by record until the first objective that
  differs (precision changes no other input of the search);
- few recorded objectives differ: a sweep of seeds 0-199 on this shape
  found 2 of 8,000 (0.025%), so more than 2 of these 400 (0.5%, 20x the
  swept rate) means float32 training got noisier;
- every campaign's best objective moves by at most 0.01.  (In the sweep,
  one campaign, AgEBO seed 108, moved by 0.013 = one of 75 validation
  rows, in float32's favour, after its search had diverged.)
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

from repro.campaign import build_campaign

SEEDS = range(10)
MAX_DIFFERING = 2


def _load_digest():
    path = Path(__file__).resolve().parent.parent / "tools" / "history_digest.py"
    spec = importlib.util.spec_from_file_location("history_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_digest = _load_digest()


def _digest_config(method: str, seed: int, dtype: str):
    config = _digest.campaign_config(method, "forest", seed, "off", False)
    return dataclasses.replace(
        config, training=dataclasses.replace(config.training, dtype=dtype)
    )


def _identity(record) -> tuple:
    return record.config.arch.tolist(), sorted(record.config.hyperparameters.items())


def test_float32_campaigns_track_the_float64_oracle():
    differing = 0
    for method in ("AgE", "AgEBO"):
        for seed in SEEDS:
            h32, h64 = (
                build_campaign(_digest_config(method, seed, dtype)).run()
                for dtype in ("float32", "float64")
            )
            assert len(h32) == len(h64)
            for a, b in zip(h32.records, h64.records):
                assert _identity(a) == _identity(b), (method, seed)
                if a.objective != b.objective:
                    differing += 1
                    break  # the search reads the objective: later records diverge
            assert abs(h32.best().objective - h64.best().objective) <= 0.01, (method, seed)
    assert differing <= MAX_DIFFERING

#!/usr/bin/env python
"""Identity matrix: digests of seeded simulated campaigns.

Runs 80 small seeded campaigns on the simulated backend — AgE and the
three AgEBO variants x forest/knn/random surrogates (AgE has none) x
search seeds 3/11 x cache off/exact x faults off/on — and prints, for each
campaign, one header line with the sha256 of its ``history_to_dict`` and
then its full JSONL event stream.  A refactor that must keep every seeded
history byte-identical is checked by diffing this output on the parent
commit and on the change::

    PYTHONPATH=src python tools/history_digest.py > after.txt
    diff before.txt after.txt

``--quick`` runs a 4-campaign subset (AgE and AgEBO, faults off and on)
that still crosses every evaluator code path.  Digests of float histories
depend on the platform's floating point, so the output is meant to be
compared between two commits on one host, never against a stored file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import (  # noqa: E402
    CampaignConfig,
    EvaluatorConfig,
    FaultConfig,
    SearchConfig,
    TrainingConfig,
    build_campaign,
)
from repro.core.serialization import history_to_dict  # noqa: E402
from repro.core.variants import AGEBO_VARIANTS  # noqa: E402

SEEDS = (3, 11)
SURROGATES = ("forest", "knn", "random")
CACHE_MODES = ("off", "exact")
#: One retry under a 30-minute timeout.  Clean attempts take 5-20
#: simulated minutes, so a hang (3x) sometimes passes the timeout and
#: sometimes does not, and two failed attempts in a row are penalized.
FAULTS_ON = dict(
    on_error="retry", max_retries=1, timeout=30.0,
    crash_prob=0.2, hang_prob=0.2, corrupt_prob=0.15, hang_factor=3.0,
)  # fmt: skip


def campaign_config(method, surrogate, seed, cache, faults) -> CampaignConfig:
    return CampaignConfig(
        dataset="covertype",
        size=300,
        num_nodes=3,
        max_evaluations=20,
        search=SearchConfig(
            method=method,
            seed=seed,
            population_size=4,
            sample_size=2,
            n_initial_points=4,
            surrogate=surrogate,
        ),
        training=TrainingConfig(epochs=1, nominal_epochs=20, warmup_epochs=0),
        evaluator=EvaluatorConfig(backend="simulated", num_workers=3, cache=cache),
        faults=FaultConfig(**FAULTS_ON, fault_seed=seed) if faults else FaultConfig(),
    )


def matrix(quick: bool):
    """``(label, config)`` for every campaign of the matrix."""
    if quick:
        cells = [("AgE", "forest"), ("AgEBO", "forest")]
        axes = [(3, "exact", False), (3, "exact", True)]
        combos = [
            (method, surrogate, seed, cache, faults)
            for method, surrogate in cells
            for seed, cache, faults in axes
        ]
    else:
        methods = [("AgE", "forest")] + [
            (variant, surrogate) for variant in AGEBO_VARIANTS for surrogate in SURROGATES
        ]
        combos = [
            (method, surrogate, seed, cache, faults)
            for method, surrogate in methods
            for seed in SEEDS
            for cache in CACHE_MODES
            for faults in (False, True)
        ]
    for method, surrogate, seed, cache, faults in combos:
        label = (
            f"{method} surrogate={'-' if method == 'AgE' else surrogate} seed={seed} "
            f"cache={cache} faults={'on' if faults else 'off'}"
        )
        yield label, campaign_config(method, surrogate, seed, cache, faults)


def digest(config: CampaignConfig) -> tuple[str, list[str]]:
    """sha256 of the campaign's history and its JSONL event lines."""
    campaign = build_campaign(config)
    lines: list[str] = []
    campaign.subscribe(lambda event: lines.append(json.dumps(event.to_dict())))
    history = campaign.run()
    blob = json.dumps(history_to_dict(history), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run the 4-campaign subset")
    args = parser.parse_args(argv)
    count = 0
    for label, config in matrix(args.quick):
        sha, lines = digest(config)
        print(f"== {label} history_sha256={sha} events={len(lines)}")
        for line in lines:
            print(line)
        count += 1
    print(f"== {count} campaigns", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

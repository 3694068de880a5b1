"""One history per seed, whatever the BLAS thread count.

A multi-threaded OpenBLAS splits float64 products with 355 output columns
(Dionis's class count) differently from a single-threaded one, so without
the training pin (:func:`repro.nn.blas.one_blas_thread`) a seeded campaign
depends on ``OPENBLAS_NUM_THREADS``.  The gate runs one small float64
Dionis campaign in two fresh interpreters, at one and at two threads, and
requires the same history bytes and the same per-epoch training losses
(the losses are where one ULP of a product first shows; the accuracies of
a campaign this small round it away).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CAMPAIGN = """
import json
from repro.campaign import (
    CampaignConfig, CampaignStarted, EvaluatorConfig, SearchConfig, TrainingConfig,
    build_campaign,
)
from repro.core.serialization import history_to_dict

config = CampaignConfig(
    dataset="dionis", size=1500, num_nodes=3, max_evaluations=3,
    search=SearchConfig(method="AgE", seed=1, population_size=4, sample_size=2,
                        batch_size=256, learning_rate=0.1),
    training=TrainingConfig(epochs=4, nominal_epochs=20, warmup_epochs=0, dtype="float64"),
    evaluator=EvaluatorConfig(backend="simulated", num_workers=2),
)
campaign = build_campaign(config)
started = []
campaign.subscribe(lambda event: started.append(event.to_dict()), CampaignStarted)
history = campaign.run()
print(json.dumps({
    "history": json.dumps(history_to_dict(history), sort_keys=True),
    "losses": [r.metadata["epoch_train_losses"] for r in history],
    "blas": [started[0].get("blas"), started[0].get("blas_threads")],
}))
"""


def _run(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CAMPAIGN], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_history_does_not_depend_on_the_blas_thread_count():
    one, two = _run(1), _run(2)
    assert one["history"] == two["history"]
    assert one["losses"] == two["losses"]
    # Both record the pin: the library, and one thread per training call.
    assert one["blas"] == two["blas"]
    if one["blas"][0] is not None:
        assert one["blas"][1] == 1

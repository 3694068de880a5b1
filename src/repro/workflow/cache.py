"""Evaluation memoization: canonical config hashing and the result cache.

AgE's mutation loop routinely resamples architectures that were already
trained (small spaces, aging populations), and each duplicate costs a full
training run.  :class:`EvaluationCache` memoizes finished
:class:`~repro.workflow.jobs.EvaluationResult` records keyed by a
canonical, order-independent hash of the candidate configuration
``(arch, hyperparameters)`` so every evaluator backend can return a
duplicate's result without re-training.

Semantics (kept deliberately uniform across backends):

- A *hit* returns the memoized result verbatim — objective, declared
  duration and metadata — so gathered records are indistinguishable from a
  recomputation of a deterministic run function.
- A hit is an ordinary attempt in every other respect: it draws its
  injected fault (:meth:`~repro.workflow.faults.FaultPolicy.fault`) and
  is settled by :meth:`~repro.workflow.faults.FaultPolicy.settle` like
  computed work; only the compute is skipped.
- The :class:`~repro.workflow.evaluator.SimulatedEvaluator` replays the
  memoized duration on the simulated clock (the worker stays reserved until
  ``start + duration``), which keeps the campaign timeline — and therefore
  the search history — bit-identical with the cache on or off, faults
  included; the utilization account counts those reserved minutes.  On
  the wall-clock backends a hit ends where it starts and counts nothing.
- A result is stored when its attempt ends for good, and only if that
  attempt computed it cleanly: not a hit, under no injected fault, not
  marked failed and with a finite objective.  So a hit needs an attempt
  of its config that has already ended, on every backend: a duplicate
  that starts while its original still runs misses.  Failures always
  re-run, and a hang or a corruption changes that attempt's result but
  never the cache entry.

The cache is manipulated exclusively from the manager thread (``submit`` /
``gather``), so it needs no locking.  Simulated-evaluator checkpoints keep
only its hit/miss/store counters: on load the entries are rebuilt from the
checkpointed jobs whose attempts ended, by the rule that stored them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.workflow.jobs import EvaluationResult

__all__ = ["EvaluationCache", "canonical_config_key", "CACHE_MODES"]

#: Accepted values of the ``cache`` knob on evaluator configs / the CLI.
CACHE_MODES = ("off", "exact")


def _canonicalize(value: Any) -> Any:
    """JSON-ready, order-independent form of a configuration value.

    Mappings are reduced to sorted-key objects (insertion order never
    matters), sets are sorted, numpy arrays/scalars become lists/scalars,
    and ``ModelConfig``-shaped objects (anything with ``arch`` +
    ``hyperparameters``) get a tagged structural encoding so equal
    configurations hash equal regardless of how they were built.
    """
    if hasattr(value, "arch") and hasattr(value, "hyperparameters"):
        return {
            "__model_config__": {
                "arch": np.asarray(value.arch).tolist(),
                "hp": _canonicalize(dict(value.hyperparameters)),
            }
        }
    if isinstance(value, dict):
        return {str(k): _canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonicalize(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    # Last resort for exotic config objects: their repr.  Stable as long
    # as the object's repr is (documented requirement for custom configs).
    return repr(value)


def canonical_config_key(config: Any) -> str:
    """Canonical order-independent digest of a candidate configuration.

    Two configs that differ only in dict key order (or numpy vs builtin
    scalar types) map to the same key; any value difference changes it.
    """
    payload = json.dumps(
        _canonicalize(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class EvaluationCache:
    """Exact-match memoization of finished evaluation results.

    ``lookup`` / ``store`` count hits, misses and stores so campaigns can
    report a hit rate.
    """

    def __init__(self) -> None:
        self._entries: dict[str, EvaluationResult] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------ #
    def key(self, config: Any) -> str:
        return canonical_config_key(config)

    def lookup(self, config: Any) -> EvaluationResult | None:
        """The memoized result for ``config``, or None (counts hit/miss)."""
        cached = self._entries.get(self.key(config))
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        # Fresh metadata dict: callers (and SearchHistory records) must not
        # alias the cached entry's mutable state.
        return EvaluationResult(
            objective=cached.objective,
            duration=cached.duration,
            metadata=dict(cached.metadata),
        )

    def store(self, config: Any, result: EvaluationResult) -> bool:
        """Memoize a successful result; first store per key wins.

        Returns True when a new entry was written (False for an already
        cached key — e.g. identical configs that were in flight together).
        """
        key = self.key(config)
        if key in self._entries:
            return False
        self._entries[key] = EvaluationResult(
            objective=result.objective,
            duration=result.duration,
            metadata=dict(result.metadata),
        )
        self.stores += 1
        return True

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, config: Any) -> bool:
        return self.key(config) in self._entries

    @property
    def hit_rate(self) -> float:
        """Hits over lookups so far (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

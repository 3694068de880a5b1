"""Named registries for pluggable campaign components.

New backends register here and become available to
:func:`repro.campaign.build_campaign` (and therefore the CLI) without
touching either:

- :data:`EVALUATORS` — ``name -> (run_function, EvaluatorConfig,
  FaultPolicy) -> Evaluator``;
- :data:`SEARCH_METHODS` — ``name ->`` :class:`SearchMethod` (a build
  factory; resuming builds the search the same way, then calls its
  ``load_state``);
- :data:`SURROGATES` — ``name -> () -> surrogate`` with a
  ``fit(X, y, rng) -> model`` / ``predict(X) -> (mu, sigma)`` interface;
  :class:`repro.bo.optimizer.BayesianOptimizer` consults this registry
  for surrogate names it does not know natively.

The built-in entries are registered by :mod:`repro.campaign.builder`
(imported by the package ``__init__``, so any ``repro.campaign`` import
sees them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Registry", "SearchMethod", "EVALUATORS", "SEARCH_METHODS", "SURROGATES"]


class Registry:
    """A named string-keyed registry with decorator-style registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}

    def register(self, name: str, value: Any = None):
        """Register ``value`` under ``name``; usable as a decorator."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string")

        def _add(obj: Any) -> Any:
            if name in self._entries and self._entries[name] is not obj:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._entries[name] = obj
            return obj

        return _add if value is None else _add(value)

    def get(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, entries={self.names()})"


@dataclass(frozen=True)
class SearchMethod:
    """One registered search method.

    ``build(config, space, hp_space, evaluator)`` constructs a fresh
    search; :func:`repro.campaign.resume_campaign` calls it too, then loads
    the checkpointed state into the result.  ``uses_bo`` tells the builder
    whether to construct the variant's hyperparameter space.
    """

    name: str
    build: Callable
    uses_bo: bool = True


EVALUATORS = Registry("evaluator backend")
SEARCH_METHODS = Registry("search method")
SURROGATES = Registry("surrogate")

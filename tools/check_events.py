#!/usr/bin/env python
"""Event-schema lint: every event built must be in the catalogue.

Three checks, all cheap and dependency-free:

1. **Catalogue completeness** — every ``CampaignEvent`` subclass defined in
   :mod:`repro.campaign.events` is listed in ``EVENT_TYPES``.
2. **Construction sites** — every ``CampaignEvent`` subclass constructed
   anywhere under ``src/`` is declared in the catalogue, whether the
   constructor is the argument of ``<bus>.emit(...)`` or sits in a hook
   that returns events for the evaluator to emit (``epoch_events``).  The
   subclasses, wherever they are defined under ``src/``, and their
   constructor calls are found by AST walk, so renamed or ad-hoc event
   classes fail the lint instead of silently producing unreplayable JSONL
   logs.
3. **Manager-side emission** — no ``*.emit(...)`` call at all under
   ``repro/nn/`` or ``repro/dataparallel/``: that code runs inside a
   worker, which holds no bus; its per-epoch record travels back in the
   result and the evaluator emits it on the manager.

Usage::

    PYTHONPATH=src python tools/check_events.py [src_dir]

Exit status is non-zero when any check fails.  CI runs this next to the
examples smoke job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


#: Packages whose code runs inside a worker (``repro/<name>/``).
WORKER_PACKAGES = ("nn", "dataparallel")


def find_emit_sites(path: Path, tree: ast.AST) -> list[tuple[str, int]]:
    """All ``(file, line)`` of ``*.emit(...)`` calls in ``tree``, parsed
    from ``path``."""
    return [
        (str(path), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and node.args
    ]


def _base_names(node: ast.ClassDef) -> set[str]:
    return {
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    }


def _callee_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def find_event_constructions(
    trees: dict[Path, ast.AST], known: set[str]
) -> list[tuple[str, int, str]]:
    """All ``(file, line, class_name)`` where a ``CampaignEvent`` subclass is
    constructed: one of the ``known`` event classes, or a class under
    ``trees`` deriving from ``CampaignEvent`` or from another event class."""
    classes = {
        node: _base_names(node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    events = {"CampaignEvent", *known}
    grew = True
    while grew:
        found = {node.name for node, bases in classes.items() if bases & events}
        grew = not found <= events
        events |= found
    events.discard("CampaignEvent")
    return [
        (str(path), node.lineno, _callee_name(node))
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee_name(node) in events
    ]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"

    from repro.campaign import events as events_module
    from repro.campaign.events import EVENT_TYPES, CampaignEvent

    errors: list[str] = []

    # 1. Catalogue completeness.
    defined = {
        name: obj
        for name, obj in vars(events_module).items()
        if isinstance(obj, type)
        and issubclass(obj, CampaignEvent)
        and obj is not CampaignEvent
    }
    for name in sorted(set(defined) - set(EVENT_TYPES)):
        errors.append(
            f"{events_module.__file__}: event class {name} is defined but "
            "missing from EVENT_TYPES"
        )
    for name in sorted(set(EVENT_TYPES) - set(defined)):
        errors.append(f"EVENT_TYPES lists {name} but no such class is defined")

    # 2. Every event constructed is catalogued.
    trees = {py: ast.parse(py.read_text(), filename=str(py)) for py in sorted(src.rglob("*.py"))}
    constructions = find_event_constructions(trees, set(EVENT_TYPES))
    for file, line, name in constructions:
        if name not in EVENT_TYPES:
            errors.append(
                f"{file}:{line}: constructs {name}(...), which is not declared "
                "in the event catalogue (repro.campaign.events.EVENT_TYPES)"
            )

    # 3. No emission site sits in worker-side code.
    num_sites = 0
    for py, tree in trees.items():
        in_worker = py.relative_to(src).parts[:2] in {("repro", p) for p in WORKER_PACKAGES}
        for file, line in find_emit_sites(py, tree):
            num_sites += 1
            if in_worker:
                errors.append(
                    f"{file}:{line}: emits an event from worker-side code; workers "
                    "hold no bus (return the record; the evaluator emits it)"
                )

    if errors:
        print(f"event-schema lint: {len(errors)} problem(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    print(
        f"event-schema lint: OK — {len(EVENT_TYPES)} catalogued event types, "
        f"{len(constructions)} construction sites and {num_sites} emission sites checked"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Event-schema lint: every emitted event must be in the catalogue.

Three checks, all cheap and dependency-free:

1. **Catalogue completeness** — every ``CampaignEvent`` subclass defined in
   :mod:`repro.campaign.events` is listed in ``EVENT_TYPES``.
2. **Emission sites** — every ``<bus>.emit(SomeEvent(...))`` call under
   ``src/`` constructs an event type declared in the catalogue.  Emission
   sites are found by AST walk, so renamed or ad-hoc event classes fail the
   lint instead of silently producing unreplayable JSONL logs.
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


def find_emit_sites(path: Path) -> list[tuple[str, int, str | None]]:
    """All ``(file, line, event_name)`` for ``*.emit(...)`` calls;
    ``event_name`` is the constructor of an ``emit(Name(...))`` call and
    None for any other argument."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites: list[tuple[str, int, str | None]] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and node.args
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
            sites.append((str(path), arg.lineno, arg.func.id))
        else:
            sites.append((str(path), node.lineno, None))
    return sites


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

    # 2. Every emission site constructs a catalogued event, and
    # 3. none sits in worker-side code.
    num_sites = 0
    for py in sorted(src.rglob("*.py")):
        in_worker = py.relative_to(src).parts[:2] in {("repro", p) for p in WORKER_PACKAGES}
        for file, line, name in find_emit_sites(py):
            num_sites += 1
            if in_worker:
                errors.append(
                    f"{file}:{line}: emits an event from worker-side code; workers "
                    "hold no bus (return the record; the evaluator emits it)"
                )
            elif name is not None and name not in EVENT_TYPES:
                errors.append(
                    f"{file}:{line}: emits {name}(...), which is not declared "
                    "in the event catalogue (repro.campaign.events.EVENT_TYPES)"
                )

    if errors:
        print(f"event-schema lint: {len(errors)} problem(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    print(
        f"event-schema lint: OK — {len(EVENT_TYPES)} catalogued event types, "
        f"{num_sites} emission sites checked"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

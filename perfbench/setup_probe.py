"""Time one campaign set-up in a fresh interpreter.

Prints the seconds of ``import repro.campaign`` plus ``build_campaign`` for
the workload.  ``run.py`` uses it to top a run up to three ``setup_s``
samples when it measures fewer campaigns than that.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    t0 = time.perf_counter()
    import repro.campaign

    repro.campaign.build_campaign(workload.make_config(seed, None))
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

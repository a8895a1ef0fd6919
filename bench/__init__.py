"""The repo benchmark: six sized workloads, two clocks, a per-layer table.

Run from the repository root::

    python3 -m bench                       # all six workloads, print every metric
    python3 -m bench --trace               # per-layer table from a traced run
    python3 -m bench --compare A.json B.json
    python3 -m bench --workload point_fit --seed 11 --seconds 8 --trace 0

``BENCHMARK.json`` names this directory as the benchmark's only path, so the
command cannot mention ``src/``; the package puts it on ``sys.path`` itself.
See ``bench/README.md`` for the workload, metric and layer tables.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

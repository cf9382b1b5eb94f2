"""End-to-end serving benchmark: executed queries through the gateway.

Five workloads drive ``ShardedQueryService.run`` in a closed loop with
one client and report what a caller sees (throughput, latency, plan
quality, set-up time, memory); a separate traced run replays a prefix
of the same stream one public call per layer and attributes the time.
``README.md`` next to this file explains the choices.

The package measures the program from outside: it imports ``repro``
from ``src/`` and the reference evaluator from ``tests/``, so the
checkout's root and ``src/`` are put on ``sys.path`` here — the
benchmark command carries no ``PYTHONPATH``.
"""

import pathlib
import sys

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]

for _path in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

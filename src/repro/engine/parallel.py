"""Names kept for the benchmark's layer wrappers.

Every query runs through the executor's one serial loop, which searches
the sorted ``CLUSTER BY`` clusters one after another (see "Serial
execution" in ``docs/performance.md``).  ``perf/layers.py`` patches
these two names here, and ``tests/test_perf_targets.py`` fails if
either goes.
"""

from __future__ import annotations

# Admission runs through ``executor.clusters_of``; the name stays here only
# as a patch target.
from repro.engine.cluster import clusters_of  # noqa: F401


# Nothing calls this, as nothing calls ``executor.apply_aggregate``: the
# name stays only because the benchmark's layer wrappers patch it.
def execute_parallel(*args, **kwargs) -> None:
    """Unused; a patch target for ``perf/layers.py`` only."""

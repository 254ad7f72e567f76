"""Run one benchmark workload and print its result as JSON (last line).

    python3 perf/run.py --workload paper_mix --seed 1 --seconds 12 --trace 0

See ``perf/README.md`` for the workloads and metrics.
"""

import sys
from pathlib import Path

# Run as a script, sys.path[0] is perf/ itself; the checkout root goes
# there instead so that perf's modules cannot shadow standard ones.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perf.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

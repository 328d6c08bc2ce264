"""Self-tests of the perf-ledger runner.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run them with

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q
"""

import sys

from paths import PERF_DIR

sys.path.insert(0, PERF_DIR)

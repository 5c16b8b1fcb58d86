"""Layer-attributed benchmark for the SMCC build -> publish -> serve stack.

Run it from the repository root::

    python3 layerbench/run.py --workload cold-uniform --seed 1 --seconds 10 --trace 0

See ``layerbench/README.md`` for the workloads, the metrics and the
layer -> end-to-end -> workload map.  The package measures the program
from outside: it only calls (and, in a traced run, temporarily wraps)
public callables of ``repro``; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

if os.path.isdir(os.path.join(SRC_DIR, "repro")) and SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

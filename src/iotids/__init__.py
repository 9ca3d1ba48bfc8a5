"""IoT network-flow intrusion detection: leakage-safe preprocessing,
from-scratch classifiers, voting hybrids, and evaluation."""

import os

# BLAS runs on one thread, the CPUs being used by forking (see parallel.py):
# set before anything imports numpy, keeping a value the user has set
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

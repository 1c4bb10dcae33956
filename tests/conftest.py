"""Shared fixtures.

BLAS runs one thread in the suite, as in `perfbench/run.py`: which
solves converge, and how fast on a busy machine, depends on the thread
count.  OpenBLAS reads it when it loads, so it is set before numpy is
first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from sdpverify.network import Network  # noqa: E402


@pytest.fixture
def tiny_net():
    """One ReLU neuron read off by two logits; margin on a box is min relu(x)."""
    return Network(
        (np.array([[1.0]]), np.array([[1.0], [0.0]])),
        (np.array([0.0]), np.array([0.0, 0.0])),
    )

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# pyproject's pytest `pythonpath` covers this process only; CLI tests start
# `python -m ballfourier.cli` subprocesses, which need src on PYTHONPATH too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def rel_err(a, b) -> float:
    a = complex(a)
    b = complex(b)
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def ulp_diff(a: float, b: float) -> float:
    """Distance between two floats in units of the larger one's ulp."""
    scale = math.ulp(max(abs(a), abs(b), np.finfo(float).tiny))
    return abs(a - b) / scale


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

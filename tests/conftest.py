import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
# pytest's ``pythonpath`` setting reaches this process only; subprocesses
# started by the tests find the uninstalled package through PYTHONPATH.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

from hypothesis.internal.conjecture import providers

from promptcl import reset_tape, tensor

# Hypothesis takes about one draw in twenty from a pool of constants that it
# harvests from every local module in sys.modules, so the programs that
# tests/test_tape_programs.py generates depended on which other files were
# loaded: collecting perfbench/test_perfbench.py, which imports run.py and
# layertrace.py, changed every program from the third on. An empty pool
# draws the same programs in every set-up (test_tape_programs.py checks it).
# A Hypothesis without the hook must fail here, not draw from the pool.
if not callable(getattr(providers, "_get_local_constants", None)):
    raise RuntimeError("hypothesis.internal.conjecture.providers._get_local_constants is gone: "
                       "the generated-program tests can no longer fix the constant pool they draw from")
providers._get_local_constants = lambda: providers.Constants()  # an empty pool


@pytest.fixture(autouse=True)
def clean_tape():
    """Start each test on an empty tape, and fail the test that leaks a workspace or a ``no_grad``."""
    reset_tape()
    yield
    leaked = tensor._WORKSPACE, list(tensor._RECORDING)
    tensor._WORKSPACE = None
    tensor._RECORDING[:] = [True]
    reset_tape()
    assert leaked == (None, [True]), "the test left a step workspace or a no_grad block open"

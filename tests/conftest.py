import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
# pytest's ``pythonpath`` setting reaches this process only; subprocesses
# started by the tests find the uninstalled package through PYTHONPATH.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

from promptcl import reset_tape


@pytest.fixture(autouse=True)
def clean_tape():
    reset_tape()
    yield
    reset_tape()

"""Deterministic RNG streams, weight init, and the input rules all modules share.

Every random draw flows through ``seeded_rng``, so a run is reproducible
from one integer seed plus short purpose tags, and every drawn weight has
the std ``INIT_STD``. ``check_fields`` is the field check of every
settings dataclass; ``text_lines`` reads every line-oriented text input
(config file, embedding table, dataset manifest). Imports nothing from
the package, so every module may use it.
"""

from __future__ import annotations

import hashlib
import math
from typing import get_type_hints

import numpy as np

INIT_STD = 0.02


def _as_word(part) -> int:
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")
    return int(part) & 0xFFFFFFFF


def seeded_rng(*parts) -> np.random.Generator:
    """Generator keyed on a tuple of integers and/or short tag strings."""
    if not parts:
        raise ValueError("seeded_rng: need at least one seed part")
    return np.random.default_rng(np.random.SeedSequence([_as_word(p) for p in parts]))


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """``INIT_STD`` times a normal draw resampled outside two standard units."""
    x = rng.standard_normal(shape)
    while True:
        bad = np.abs(x) > 2.0
        if not bad.any():
            break
        x[bad] = rng.standard_normal(int(bad.sum()))
    return x * INIT_STD


def normal_init(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) * INIT_STD


def check_fields(obj, sizes=()) -> None:
    """Reject a non-finite float field of dataclass ``obj`` and a field in ``sizes`` below 1."""
    for name, hint in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if hint is float and not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}: {name} must be finite, got {value}")
        if name in sizes and value < 1:
            raise ValueError(f"{type(obj).__name__}: {name} must be >= 1, got {value}")


def text_lines(path) -> list[tuple[int, str]]:
    """``(line number from 1, stripped line)`` of a UTF-8 text file, without blank and ``#`` lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err}") from None
    return [(n, line) for n, line in enumerate(lines, start=1) if line and not line.startswith("#")]

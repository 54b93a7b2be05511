"""Flat key = value run configuration files.

The format is one assignment per line, ``#`` comments allowed, read by
``seeds.text_lines``. Every key must be in the schema below; parse errors
carry the 1-based line number.

The schema is derived from the fields of ``ModelConfig``, ``AslConfig``
and ``RunConfig``: a field with ``help`` metadata declares a key (named by
its ``key`` metadata, else by the field) whose converter and default are
the field's type and default. Only the paths the CLI reads itself are
declared here.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_type_hints

from .losses import AslConfig
from .protocol import RunConfig
from .seeds import text_lines
from .vit import ModelConfig

# key -> (default, help) of the inputs and outputs the CLI resolves itself
PATH_KEYS = {
    "dataset": ("", "directory of the benchmark dataset (required for run)"),
    "pretrain_dataset": ("", "directory of the pretraining dataset (for the pretrain command)"),
    "pretrain_checkpoint": ("", "checkpoint whose backbone seeds the run (optional)"),
    "out_dir": ("runs", "where reports and checkpoints are written"),
}


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# field type -> parser of its file value or flag; an optional int parses as an int
CONVERTERS = {int: int, float: float, str: str, bool: _bool, int | None: int}


def _key(f) -> str:
    return f.metadata.get("key", f.name)


# key -> (converter, default, help)
SCHEMA: dict[str, tuple] = {
    **{key: (str, default, help_text) for key, (default, help_text) in PATH_KEYS.items()},
    **{
        _key(f): (CONVERTERS[get_type_hints(cls)[f.name]], f.default, f.metadata["help"])
        for cls in (ModelConfig, AslConfig, RunConfig)
        for f in fields(cls)
        if "help" in f.metadata
    },
}


def default_config() -> dict:
    return {key: default for key, (_, default, _) in SCHEMA.items()}


def _strip_inline_comment(line: str) -> str:
    """Drop a ``#`` comment that follows whitespace."""
    for i, ch in enumerate(line):
        if ch == "#" and line[i - 1].isspace():
            return line[:i].strip()
    return line


def parse_config_file(path) -> dict:
    values = default_config()
    for lineno, raw in text_lines(path):
        line = _strip_inline_comment(raw)
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        convert = SCHEMA[key][0]
        try:
            values[key] = convert(value)
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: bad value for {key}: {err}") from None
    return values


def print_config() -> str:
    """Schema as a ready-to-edit config file; parsing it back gives the defaults."""
    width = max(len(k) for k in SCHEMA)
    lines = ["# promptcl run configuration (defaults)"]
    for key, (_, default, help_text) in SCHEMA.items():
        lines.append(f"{key:<{width}} = {default}  # {help_text}")
    return "\n".join(lines) + "\n"


def from_values(cls, values: dict, **nested):
    """``cls`` with each field not in ``nested`` read from ``values`` under its key."""
    return cls(**{f.name: values[_key(f)] for f in fields(cls) if f.name not in nested}, **nested)


def build_run_config(values: dict) -> RunConfig:
    # a field without help reads a key declared elsewhere: ModelConfig.seed reads seed
    return from_values(RunConfig, values, model=from_values(ModelConfig, values),
                       asl=from_values(AslConfig, values))

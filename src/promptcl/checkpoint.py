"""Self-describing checkpoint containers with bit-exact round-trips.

A checkpoint is a single ``.npz`` holding every parameter array under its
canonical name plus a JSON metadata blob (model config, class registry,
frozen flags). Arrays are stored losslessly, so save -> load -> save
reproduces identical parameter bytes; tests hold the package to that.

The ``adapters_frozen`` map is written all-false and never read:
adapters train in stage 1 alone because ``compute_trainable_mask`` says
so, and they carry no flag of their own. The map stays because the
``promptcl-checkpoint-1`` format carries it.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import asdict

import numpy as np
from numpy.lib import format as npy_format

from .adapters import attach_adapters
from .model import ModelState, named_params
from .prompts import ClassifierBank, PromptPool
from .tensor import Tensor
from .vit import EncoderParams, ModelConfig

FORMAT = "promptcl-checkpoint-1"


def params_digest(named: dict[str, Tensor], names=None) -> str:
    """SHA-256 over the selected parameter arrays (sorted by name)."""
    h = hashlib.sha256()
    for name in sorted(named if names is None else names):
        t = named[name]
        h.update(name.encode("utf-8"))
        h.update(str(t.shape).encode("utf-8"))
        h.update(t.data.tobytes())
    return h.hexdigest()


def save_checkpoint(path, state: ModelState) -> None:
    meta = {
        "format": FORMAT,
        "config": asdict(state.config),
        "backbone_frozen": state.backbone.frozen,
        "has_adapters": state.adapters is not None,
        "adapters_frozen": dict.fromkeys(map(str, state.adapters.layers if state.adapters else ()), False),
        "pool": _records(state.pool),
        "bank": _records(state.bank),
    }
    blobs = {name: t.data for name, t in named_params(state).items()}
    blobs["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    _write_npz(path, blobs)


def _records(container) -> list[dict]:
    return [
        {"class_id": e.class_id, "stage_added": e.stage_added, "frozen": e.frozen}
        for e in container.entries
    ]


def _write_npz(path, blobs: dict[str, np.ndarray]) -> None:
    """npz with sorted entries and a fixed zip timestamp.

    ``np.savez`` stamps each zip member with the wall clock, so two saves
    of identical arrays differ in bytes. Checkpoints feed content digests,
    hence the container itself must be a pure function of its contents.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name in sorted(blobs):
            buf = io.BytesIO()
            npy_format.write_array(buf, np.asanyarray(blobs[name]), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_checkpoint(path) -> ModelState:
    """Rebuild a saved state; a damaged or malformed file raises ValueError naming ``path``."""
    try:
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
    except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, ValueError) as err:
        # zipfile raises NotImplementedError / RuntimeError for a damaged
        # version, compression or encryption field; np.load a ValueError for
        # an object array it may not unpickle.
        raise ValueError(f"load_checkpoint: {path} is not a readable container: {err}") from None
    if "__meta__" not in arrays:
        raise ValueError(f"load_checkpoint: {path} is not a checkpoint container (no metadata)")
    try:
        meta = json.loads(arrays.pop("__meta__").tobytes().decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError both are
        raise ValueError(f"load_checkpoint: {path} has malformed metadata (not UTF-8 JSON: {err})") from None
    try:
        return _restore(path, meta, arrays)
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(
            f"load_checkpoint: {path} has malformed metadata ({type(err).__name__}: {err})"
        ) from None


def _restore(path, meta: dict, arrays: dict[str, np.ndarray]) -> ModelState:
    if meta.get("format") != FORMAT:
        raise ValueError(f"load_checkpoint: unsupported container format {meta.get('format')!r}")
    try:
        config = ModelConfig(**meta["config"])
    except ValueError as err:
        raise ValueError(f"load_checkpoint: {path} has malformed metadata ({err})") from None
    backbone = EncoderParams(config)
    backbone.frozen = bool(meta["backbone_frozen"])
    adapters = attach_adapters(config) if meta["has_adapters"] else None
    # Every array starts at the shape the config implies; the loop below
    # checks each stored array against it and copies it in.
    pool = PromptPool(config.embed_dim, config.seed)
    bank = ClassifierBank(config.embed_dim, config.seed)
    for container, records in ((pool, meta["pool"]), (bank, meta["bank"])):
        for rec in records:
            container.add(int(rec["class_id"]), int(rec["stage_added"]), frozen=bool(rec["frozen"]))
        if len(set(container.class_ids)) != len(container):
            raise ValueError(f"load_checkpoint: {path} has malformed metadata (a class is listed twice)")

    state = ModelState(config, backbone, adapters, pool, bank)
    named = named_params(state)
    missing = set(named) - set(arrays)
    extra = set(arrays) - set(named)
    if missing or extra:
        raise ValueError(
            f"load_checkpoint: {path} parameter names disagree with metadata "
            f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
        )
    for name, arr in arrays.items():
        t = named[name]
        if t.data.shape != arr.shape:
            raise ValueError(
                f"load_checkpoint: {path} array {name} has shape {arr.shape}, expected {t.data.shape}"
            )
        if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
            raise ValueError(f"load_checkpoint: {path} array {name} is not all finite numbers ({arr.dtype})")
        t.data = arr.astype(np.float64, copy=True)
    return state


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

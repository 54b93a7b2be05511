"""Deterministic synthetic multi-label image sets.

Each class owns a small stamp pattern; an image is background noise plus
the stamps of its positive classes, each placed in its own grid cell so
stamps never overlap. Everything is driven by explicit seeds: the same
spec and seed always produce byte-identical files on disk.

On-disk layout::

    <dir>/manifest.txt
    <dir>/train/0000.sample ...
    <dir>/test/0000.sample ...

A ``.sample`` file is the image grid as little-endian float64, row-major,
followed by one byte (0 or 1) per class. The manifest is line-oriented
``key value`` text; ``spec_hash`` is the SHA-256 of the canonical header
string (documented in ``header_hash``) so loaders can verify that the
declared shape matches what the directory claims to be.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import get_type_hints

import numpy as np

from .seeds import seeded_rng


def _check_fields(spec, sizes) -> None:
    """Reject a non-finite float field of ``spec`` and a field in ``sizes`` below 1."""
    for name, hint in get_type_hints(type(spec)).items():
        value = getattr(spec, name)
        if hint is float and not math.isfinite(value):
            raise ValueError(f"{type(spec).__name__}: {name} must be finite, got {value}")
        if name in sizes and value < 1:
            raise ValueError(f"{type(spec).__name__}: {name} must be >= 1, got {value}")


@dataclass
class ShiftParams:
    """Invertible pixel-space domain shift.

    ``contrast``/``offset`` apply an affine intensity map; when
    ``cell_perm_seed`` is set, the grid cells of side ``cell_side`` are
    additionally rearranged by a fixed seeded permutation.
    """

    contrast: float = field(default=1.0, metadata={"flag": "shift-contrast"})
    offset: float = field(default=0.0, metadata={"flag": "shift-offset"})
    cell_perm_seed: int | None = field(default=None, metadata={
        "flag": "shift-cells", "help": "seed for a fixed cell permutation (omit to disable)"})
    cell_side: int = 4

    def __post_init__(self):
        _check_fields(self, ("cell_side",))
        if self.contrast == 0.0:
            raise ValueError("ShiftParams: contrast of zero is not invertible")


@dataclass
class SyntheticSpec:
    n_classes: int = field(default=12, metadata={"flag": "classes"})
    image_side: int = 16
    stamp_side: int = 4
    n_train: int = field(default=600, metadata={"flag": "train"})
    n_test: int = field(default=300, metadata={"flag": "test"})
    min_labels: int = 1
    max_labels: int = 3
    min_positive: int = 20
    noise_sigma: float = 0.05
    stamp_seed: int = 7
    shift: ShiftParams | None = None

    def __post_init__(self):
        _check_fields(self, ("image_side", "stamp_side", "n_train", "n_test"))
        if self.noise_sigma < 0:
            raise ValueError(f"SyntheticSpec: noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.image_side % self.stamp_side != 0:
            raise ValueError(
                f"SyntheticSpec: image_side {self.image_side} not divisible by stamp_side {self.stamp_side}"
            )
        if not 1 <= self.min_labels <= self.max_labels <= self.n_classes:
            raise ValueError(
                f"SyntheticSpec: need 1 <= min_labels <= max_labels <= n_classes, "
                f"got ({self.min_labels}, {self.max_labels}, {self.n_classes})"
            )
        if self.max_labels > self.n_cells:
            raise ValueError(
                f"SyntheticSpec: {self.max_labels} stamps cannot fit the {self.n_cells}-cell grid"
            )

    @property
    def grid_side(self) -> int:
        return self.image_side // self.stamp_side

    @property
    def n_cells(self) -> int:
        return self.grid_side * self.grid_side

    @property
    def class_names(self) -> list[str]:
        width = max(2, len(str(self.n_classes - 1)))
        return [f"class_{i:0{width}d}" for i in range(self.n_classes)]


@dataclass
class Dataset:
    class_names: list[str]
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    spec_hash: str

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def image_side(self) -> int:
        return self.train_images.shape[1]


def header_hash(n_classes: int, image_side: int, n_train: int, n_test: int, class_names) -> str:
    canon = (
        f"n_classes={n_classes};image_side={image_side};"
        f"n_train={n_train};n_test={n_test};classes={','.join(class_names)}"
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _draw_labels(spec: SyntheticSpec, seed: int, split: str, n: int) -> np.ndarray:
    """Multi-hot labels with at least ``min_positive`` rows per class.

    Resamples the whole split with a bumped attempt counter until the
    coverage audit passes, so the result is still a pure function of the
    seed.
    """
    for attempt in range(1000):
        rng = seeded_rng(seed, "labels", split, attempt)
        labels = np.zeros((n, spec.n_classes), dtype=np.uint8)
        for i in range(n):
            k = int(rng.integers(spec.min_labels, spec.max_labels + 1))
            labels[i, rng.choice(spec.n_classes, size=k, replace=False)] = 1
        if labels.sum(axis=0).min() >= spec.min_positive:
            return labels
    raise ValueError(
        f"generate_dataset: could not cover every class {spec.min_positive} times in "
        f"{n} {split} images; enlarge the split or lower min_positive"
    )


def _render_split(spec: SyntheticSpec, stamps: np.ndarray, labels: np.ndarray, seed: int, split: str) -> np.ndarray:
    n = labels.shape[0]
    rng = seeded_rng(seed, "pixels", split)
    images = rng.normal(0.0, spec.noise_sigma, size=(n, spec.image_side, spec.image_side))
    g, s = spec.grid_side, spec.stamp_side
    for i in range(n):
        classes = np.flatnonzero(labels[i])
        cells = rng.choice(spec.n_cells, size=classes.size, replace=False)
        for cls, cell in zip(classes, cells):
            r, c = divmod(int(cell), g)
            images[i, r * s:(r + 1) * s, c * s:(c + 1) * s] += stamps[cls]
    return images


def class_stamps(spec: SyntheticSpec) -> np.ndarray:
    rng = seeded_rng(spec.stamp_seed, "stamps")
    return rng.uniform(-1.0, 1.0, size=(spec.n_classes, spec.stamp_side, spec.stamp_side))


def generate_dataset(spec: SyntheticSpec, seed: int, out_dir=None) -> Dataset:
    """Build (and optionally save) a dataset for the given spec and seed."""
    stamps = class_stamps(spec)
    train_labels = _draw_labels(spec, seed, "train", spec.n_train)
    test_labels = _draw_labels(spec, seed, "test", spec.n_test)
    ds = Dataset(
        class_names=spec.class_names,
        train_images=_render_split(spec, stamps, train_labels, seed, "train"),
        train_labels=train_labels,
        test_images=_render_split(spec, stamps, test_labels, seed, "test"),
        test_labels=test_labels,
        spec_hash=header_hash(spec.n_classes, spec.image_side, spec.n_train, spec.n_test, spec.class_names),
    )
    if spec.shift is not None:
        ds = apply_domain_shift(ds, spec.shift)
    if out_dir is not None:
        save_dataset(ds, out_dir)
    return ds


def _permute_cells(images: np.ndarray, perm: np.ndarray, cell: int) -> np.ndarray:
    n, side, _ = images.shape
    g = side // cell
    blocks = images.reshape(n, g, cell, g, cell).transpose(0, 1, 3, 2, 4).reshape(n, g * g, cell, cell)
    blocks = blocks[:, perm]
    return blocks.reshape(n, g, g, cell, cell).transpose(0, 1, 3, 2, 4).reshape(n, side, side)


def apply_domain_shift(ds: Dataset, shift: ShiftParams, inverse: bool = False) -> Dataset:
    """Apply (or undo) the pixel transform; labels are untouched."""
    side = ds.image_side
    perm = None
    if shift.cell_perm_seed is not None:
        if side % shift.cell_side != 0:
            raise ValueError(
                f"apply_domain_shift: cell_side {shift.cell_side} does not divide image side {side}"
            )
        g = side // shift.cell_side
        perm = seeded_rng(shift.cell_perm_seed, "cell-permutation").permutation(g * g)
        if inverse:
            perm = np.argsort(perm)

    def transform(images: np.ndarray) -> np.ndarray:
        out = images
        if inverse:
            out = (out - shift.offset) / shift.contrast
            if perm is not None:
                out = _permute_cells(out, perm, shift.cell_side)
        else:
            if perm is not None:
                out = _permute_cells(out, perm, shift.cell_side)
            out = out * shift.contrast + shift.offset
        return out

    return replace(ds, train_images=transform(ds.train_images), test_images=transform(ds.test_images))


# -- disk format -------------------------------------------------------


def _write_split(root: str, split: str, images: np.ndarray, labels: np.ndarray) -> str:
    split_dir = os.path.join(root, split)
    os.makedirs(split_dir, exist_ok=True)
    digest = hashlib.sha256()
    for i in range(images.shape[0]):
        blob = images[i].astype("<f8").tobytes() + labels[i].astype(np.uint8).tobytes()
        digest.update(blob)
        with open(os.path.join(split_dir, f"{i:04d}.sample"), "wb") as fh:
            fh.write(blob)
    return digest.hexdigest()


def save_dataset(ds: Dataset, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    train_hash = _write_split(out_dir, "train", ds.train_images, ds.train_labels)
    test_hash = _write_split(out_dir, "test", ds.test_images, ds.test_labels)
    lines = [
        f"n_classes {ds.n_classes}",
        f"image_side {ds.image_side}",
        f"n_train {ds.train_images.shape[0]}",
        f"n_test {ds.test_images.shape[0]}",
        f"classes {','.join(ds.class_names)}",
        f"spec_hash {ds.spec_hash}",
        f"train_hash {train_hash}",
        f"test_hash {test_hash}",
    ]
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_split(root: str, split: str, count: int, side: int, n_classes: int, want_hash: str | None):
    split_dir = os.path.join(root, split)
    if not os.path.isdir(split_dir):
        raise ValueError(f"load_dataset: missing split directory {split_dir}")
    names = sorted(f for f in os.listdir(split_dir) if f.endswith(".sample"))
    if len(names) != count:
        raise ValueError(
            f"load_dataset: manifest promises {count} {split} samples, found {len(names)} files"
        )
    pixel_bytes = side * side * 8
    expected = pixel_bytes + n_classes
    raw = np.empty((count, expected), dtype=np.uint8)
    for i, name in enumerate(names):
        path = os.path.join(split_dir, name)
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected or fh.readinto(raw[i]) != expected:
                raise ValueError(
                    f"load_dataset: corrupted sample file {path}: {size} bytes, expected {expected}"
                )
    labels = raw[:, pixel_bytes:]
    bad = np.flatnonzero(labels.max(axis=1, initial=0) > 1)
    if bad.size:
        path = os.path.join(split_dir, names[bad[0]])
        raise ValueError(f"load_dataset: sample file {path} has label bytes outside 0/1")
    if want_hash is not None and hashlib.sha256(raw).hexdigest() != want_hash:
        raise ValueError(f"load_dataset: {split} split content hash mismatch (files were modified)")
    images = np.empty((count, side, side), dtype="<f8")
    images.view(np.uint8).reshape(count, pixel_bytes)[...] = raw[:, :pixel_bytes]
    return images.astype(np.float64, copy=False), labels.copy()


def load_dataset(path: str) -> Dataset:
    """Read a dataset directory back, verifying counts, sizes and hashes."""
    manifest = os.path.join(path, "manifest.txt")
    if not os.path.isfile(manifest):
        raise ValueError(f"load_dataset: no manifest.txt under {path}")
    fields: dict[str, str] = {}
    with open(manifest, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            if not value:
                raise ValueError(f"{manifest}: line {lineno}: expected 'key value'")
            fields[key] = value
    required = ("n_classes", "image_side", "n_train", "n_test", "classes", "spec_hash")
    missing = [k for k in required if k not in fields]
    if missing:
        raise ValueError(f"{manifest}: missing required fields {missing}")
    n_classes = int(fields["n_classes"])
    side = int(fields["image_side"])
    n_train = int(fields["n_train"])
    n_test = int(fields["n_test"])
    names = fields["classes"].split(",")
    if len(names) != n_classes:
        raise ValueError(f"{manifest}: lists {len(names)} class names for n_classes {n_classes}")
    expected_hash = header_hash(n_classes, side, n_train, n_test, names)
    if fields["spec_hash"] != expected_hash:
        raise ValueError(
            f"{manifest}: spec_hash mismatch: manifest says {fields['spec_hash'][:12]}..., "
            f"header fields hash to {expected_hash[:12]}..."
        )
    train_images, train_labels = _read_split(path, "train", n_train, side, n_classes, fields.get("train_hash"))
    test_images, test_labels = _read_split(path, "test", n_test, side, n_classes, fields.get("test_hash"))
    return Dataset(names, train_images, train_labels, test_images, test_labels, fields["spec_hash"])

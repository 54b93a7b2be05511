"""Class-specific prompt vectors and their per-class linear classifiers.

Each known class owns exactly one prompt token and one tiny readout head
(weight vector plus scalar bias). Prompts added in a later session leave
earlier entries untouched, which is what makes the incremental freezing
story auditable: an entry is a separate parameter array with its own
``frozen`` flag and the session number that introduced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeds import normal_init, seeded_rng, text_lines
from .tensor import Tensor, concat, reshape, row_readout


@dataclass
class PromptEntry:
    class_id: int
    vector: Tensor
    frozen: bool = False
    stage_added: int = 1


@dataclass
class HeadEntry:
    class_id: int
    weight: Tensor
    bias: Tensor
    frozen: bool = False
    stage_added: int = 1


class _ClassEntries:
    """Ordered per-class entries sharing a width and an init seed.

    ``array_fields`` maps each array-name pattern to the entry field that
    holds the array: the one place prompt and head names are spelled.
    """

    array_fields: dict[str, str]

    def __init__(self, dim: int, seed: int = 0):
        self.dim = int(dim)
        self.seed = int(seed)
        self.entries: list = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def class_ids(self) -> list[int]:
        return [e.class_id for e in self.entries]

    def _trainable(self, class_id: int, vector) -> Tensor:
        """A trainable copy of ``vector`` (zeros without one), never the caller's array."""
        arr = np.zeros(self.dim) if vector is None else np.array(vector, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise ValueError(f"{type(self).__name__}.add: class {class_id} shape {arr.shape} is not ({self.dim},)")
        return Tensor(arr, requires_grad=True)

    def named_entries(self):
        """``(name, tensor, entry)`` for every array, in entry order."""
        for e in self.entries:
            for pattern, attr in self.array_fields.items():
                yield pattern.format(e.class_id), getattr(e, attr), e

    def named(self) -> dict[str, Tensor]:
        return {name: t for name, t, _ in self.named_entries()}

    def entry(self, class_id: int):
        for e in self.entries:
            if e.class_id == class_id:
                return e
        raise KeyError(f"{type(self).__name__} has no class {class_id}")

    def reordered(self, order: list[int]):
        """Container of the same class sharing the same tensors, entries permuted (for tests)."""
        if sorted(order) != list(range(len(self.entries))):
            raise ValueError(f"reordered: {order} is not a permutation of {len(self.entries)} entries")
        out = type(self)(self.dim, self.seed)
        out.entries = [self.entries[i] for i in order]
        return out


class PromptPool(_ClassEntries):
    """Ordered collection of per-class prompt tokens."""

    array_fields = {"prompt.{:04d}": "vector"}

    def add(self, class_id: int, stage: int, vector=None, frozen: bool = False) -> None:
        """Append a prompt holding a copy of ``vector``, or zeros of the pool's width."""
        self.entries.append(PromptEntry(class_id, self._trainable(class_id, vector), frozen, stage))

    def stacked(self) -> Tensor | None:
        """All prompt vectors as one (n, dim) tensor, in pool order: two tape entries for any n."""
        if not self.entries:
            return None
        return reshape(concat([e.vector for e in self.entries], axis=0), (len(self.entries), self.dim))


class ClassifierBank(_ClassEntries):
    """Per-class linear readouts, kept in the same order as the pool."""

    array_fields = {"head.{:04d}.w": "weight", "head.{:04d}.b": "bias"}

    def add(self, class_id: int, stage: int, weight=None, frozen: bool = False) -> None:
        """Append a head with a zero bias and a copy of ``weight``, or zeros of the bank's width."""
        weight = self._trainable(class_id, weight)
        self.entries.append(HeadEntry(class_id, weight, Tensor(0.0, requires_grad=True), frozen, stage))


def semantic_projection(text_dim: int, dim: int, seed: int) -> np.ndarray:
    """Fixed (dim, text_dim) map from embedding space to prompt space.

    Identity when the dimensions already agree, otherwise the orthonormal
    factor of a seeded Gaussian so the map is an isometry on its rank.
    """
    if text_dim == dim:
        return np.eye(dim)
    rng = seeded_rng(seed, "semantic-projection")
    if dim <= text_dim:
        q, _ = np.linalg.qr(rng.standard_normal((text_dim, dim)))
        return q.T
    q, _ = np.linalg.qr(rng.standard_normal((dim, text_dim)))
    return q


def add_class_prompts(
    pool: PromptPool,
    bank: ClassifierBank,
    class_ids,
    stage: int,
    semantic: dict[int, np.ndarray] | None = None,
) -> None:
    """Register new classes: one trainable prompt and one head each.

    Prompts are N(0, INIT_STD^2) draws, or projected from ``semantic`` when it is
    given (heads are always drawn). New entries are appended in ascending class-id order.
    """
    new_ids = sorted(int(c) for c in class_ids)
    if len(set(new_ids)) != len(new_ids):
        raise ValueError(f"add_class_prompts: duplicate ids in {list(class_ids)}")
    existing = set(pool.class_ids)
    for cid in new_ids:
        if cid in existing:
            raise ValueError(f"add_class_prompts: class {cid} already has a prompt")
    if set(bank.class_ids) != existing:
        raise ValueError("add_class_prompts: pool and bank class sets diverged")

    if semantic is not None and new_ids:
        missing = [cid for cid in new_ids if cid not in semantic]
        if missing:
            raise ValueError(f"add_class_prompts: no embedding row for classes {missing}")
        proj = semantic_projection(semantic[new_ids[0]].size, pool.dim, pool.seed)

    for cid in new_ids:
        if semantic is not None:
            vec = proj @ semantic[cid]
        else:
            vec = normal_init(seeded_rng(pool.seed, "prompt", cid), (pool.dim,))
        pool.add(cid, stage, vector=vec)
        bank.add(cid, stage, weight=normal_init(seeded_rng(bank.seed, "head", cid), (bank.dim,)))


def freeze_previous(
    pool: PromptPool,
    bank: ClassifierBank,
    current_stage: int,
    freeze_prompts: bool = True,
) -> None:
    """Mark entries from earlier sessions frozen. Safe to call repeatedly."""
    for e in pool.entries:
        if freeze_prompts and e.stage_added < current_stage:
            e.frozen = True
    for e in bank.entries:
        if e.stage_added < current_stage:
            e.frozen = True


def head_positions(bank: ClassifierBank, class_ids=None) -> list[int]:
    """Bank positions of ``class_ids`` in their order (default: every head)."""
    if class_ids is None:
        return list(range(len(bank.entries)))
    position = {cid: i for i, cid in enumerate(bank.class_ids)}
    try:
        return [position[int(c)] for c in class_ids]
    except KeyError as err:
        raise ValueError(f"classify: no head for class {err.args[0]}") from None


def classify(o_P: Tensor, bank: ClassifierBank, class_ids=None, start: int = 0) -> Tensor:
    """Per-class logits from the prompts' output rows.

    Row ``i`` of ``o_P`` must correspond to ``bank.class_ids[start + i]``:
    ``o_P`` holds every prompt row, or from ``start`` on the rows the
    logits read, which may run past the last head into rows no logit
    reads. Pick a subset of classes with ``class_ids`` (logit columns
    follow that order); ``row_readout`` rejects a read row outside ``o_P``.
    """
    positions = head_positions(bank, class_ids)
    heads = [bank.entries[i] for i in positions]
    return row_readout(o_P, [i - start for i in positions], [e.weight for e in heads], [e.bias for e in heads])


def orthogonality_penalty(pool: PromptPool) -> Tensor:
    """Sum of squared off-diagonal cosines between prompt vectors."""
    if not pool.entries:
        raise ValueError("orthogonality_penalty: pool is empty")
    rows = []
    for e in pool.entries:
        if not np.any(e.vector.data):
            raise ValueError(f"orthogonality_penalty: prompt {e.class_id} has zero norm")
        rows.append(e.vector * (e.vector * e.vector).sum() ** -0.5)
    normed = reshape(concat(rows, axis=0), (len(rows), pool.dim))
    gram = normed @ normed.transpose_last()
    off = gram * Tensor(1.0 - np.eye(len(rows)))
    return (off * off).sum()


def load_semantic_embeddings(path) -> dict[int, np.ndarray]:
    """Parse a tab-separated embedding table into ``{class_id: vector}``.

    One row per class: ``class_id<TAB>v1,v2,...,vD`` with a shared D across
    rows. Raises with the offending 1-based line number on malformed rows,
    non-finite values, duplicate ids, ragged dimensions, or an empty table.
    """
    vectors: dict[int, np.ndarray] = {}
    lines_seen: dict[int, int] = {}
    dim: int | None = None
    for lineno, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'class_id<TAB>values'")
        try:
            cid = int(parts[0])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: bad class id {parts[0]!r}") from None
        try:
            vec = np.array([float(v) for v in parts[1].split(",")], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unparsable embedding values") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: line {lineno}: non-finite embedding value")
        if cid in vectors:
            raise ValueError(
                f"{path}: line {lineno}: duplicate class {cid} (first seen line {lines_seen[cid]})"
            )
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ValueError(
                f"{path}: line {lineno}: class {cid} has {vec.size} values, expected {dim}"
            )
        vectors[cid] = vec
        lines_seen[cid] = lineno
    if not vectors:
        raise ValueError(f"{path}: no embedding rows found")
    return vectors

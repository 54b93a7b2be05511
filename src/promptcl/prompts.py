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

from .seeds import normal_init, seeded_rng
from .tensor import Tensor, concat, reshape, row_readout

PROMPT_STD = 0.02


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


@dataclass
class SemanticInit:
    """Per-class embedding vectors loaded from a text file.

    ``context`` is an optional block of shared context rows kept only for
    inspection; projection uses the per-class vectors alone.
    """

    vectors: dict[int, np.ndarray]
    dim: int
    context: np.ndarray | None = None


class PromptPool:
    """Ordered collection of per-class prompt tokens."""

    def __init__(self, dim: int, seed: int = 0):
        self.dim = int(dim)
        self.seed = int(seed)
        self.entries: list[PromptEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def class_ids(self) -> list[int]:
        return [e.class_id for e in self.entries]

    def entry(self, class_id: int) -> PromptEntry:
        for e in self.entries:
            if e.class_id == class_id:
                return e
        raise KeyError(f"prompt pool has no class {class_id}")

    def stacked(self) -> Tensor | None:
        """All prompt vectors as one (n, dim) tensor, in pool order."""
        if not self.entries:
            return None
        rows = [reshape(e.vector, (1, self.dim)) for e in self.entries]
        return rows[0] if len(rows) == 1 else concat(rows, axis=0)

    def named(self) -> dict[str, Tensor]:
        return {f"prompt.{e.class_id:04d}": e.vector for e in self.entries}

    def reordered(self, order: list[int]) -> "PromptPool":
        """Pool sharing the same tensors with entries permuted (for tests)."""
        if sorted(order) != list(range(len(self.entries))):
            raise ValueError(f"reordered: {order} is not a permutation of {len(self.entries)} entries")
        out = PromptPool(self.dim, self.seed)
        out.entries = [self.entries[i] for i in order]
        return out


class ClassifierBank:
    """Per-class linear readouts, kept in the same order as the pool."""

    def __init__(self, dim: int, seed: int = 0):
        self.dim = int(dim)
        self.seed = int(seed)
        self.entries: list[HeadEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def class_ids(self) -> list[int]:
        return [e.class_id for e in self.entries]

    def entry(self, class_id: int) -> HeadEntry:
        for e in self.entries:
            if e.class_id == class_id:
                return e
        raise KeyError(f"classifier bank has no class {class_id}")

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for e in self.entries:
            out[f"head.{e.class_id:04d}.w"] = e.weight
            out[f"head.{e.class_id:04d}.b"] = e.bias
        return out

    def reordered(self, order: list[int]) -> "ClassifierBank":
        if sorted(order) != list(range(len(self.entries))):
            raise ValueError(f"reordered: {order} is not a permutation of {len(self.entries)} entries")
        out = ClassifierBank(self.dim, self.seed)
        out.entries = [self.entries[i] for i in order]
        return out


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
    init_mode: str = "random",
    semantic: SemanticInit | None = None,
) -> tuple[PromptPool, ClassifierBank]:
    """Register new classes: one trainable prompt and one head each.

    ``init_mode`` is "random" (N(0, 0.02^2) draws) or "semantic" (prompt
    vectors projected from ``semantic``; heads stay randomly drawn).
    New entries are appended in ascending class-id order.
    """
    if init_mode not in ("random", "semantic"):
        raise ValueError(f"add_class_prompts: unknown init_mode {init_mode!r}")
    if init_mode == "semantic" and semantic is None:
        raise ValueError("add_class_prompts: semantic init requested without embeddings")
    new_ids = sorted(int(c) for c in class_ids)
    if len(set(new_ids)) != len(new_ids):
        raise ValueError(f"add_class_prompts: duplicate ids in {list(class_ids)}")
    existing = set(pool.class_ids)
    for cid in new_ids:
        if cid in existing:
            raise ValueError(f"add_class_prompts: class {cid} already has a prompt")
    if set(bank.class_ids) != existing:
        raise ValueError("add_class_prompts: pool and bank class sets diverged")

    if init_mode == "semantic":
        missing = [cid for cid in new_ids if cid not in semantic.vectors]
        if missing:
            raise ValueError(f"add_class_prompts: no embedding row for classes {missing}")
        proj = semantic_projection(semantic.dim, pool.dim, pool.seed)

    for cid in new_ids:
        if init_mode == "semantic":
            vec = proj @ semantic.vectors[cid]
        else:
            vec = normal_init(seeded_rng(pool.seed, "prompt", cid), (pool.dim,), PROMPT_STD)
        pool.entries.append(PromptEntry(cid, Tensor(vec, requires_grad=True), False, stage))
        head_rng = seeded_rng(bank.seed, "head", cid)
        w = normal_init(head_rng, (bank.dim,), PROMPT_STD)
        bank.entries.append(
            HeadEntry(cid, Tensor(w, requires_grad=True), Tensor(0.0, requires_grad=True), False, stage)
        )
    return pool, bank


def freeze_previous(
    pool: PromptPool,
    bank: ClassifierBank,
    current_stage: int,
    freeze_prompts: bool = True,
    freeze_heads: bool = True,
) -> None:
    """Mark entries from earlier sessions frozen. Safe to call repeatedly."""
    for e in pool.entries:
        if freeze_prompts and e.stage_added < current_stage:
            e.frozen = True
    for e in bank.entries:
        if freeze_heads and e.stage_added < current_stage:
            e.frozen = True


def classify(o_P: Tensor, bank: ClassifierBank, class_ids=None) -> Tensor:
    """Per-class logits from the prompts' output rows.

    Row ``i`` of ``o_P`` must correspond to ``bank.class_ids[i]``; pick a
    subset of classes with ``class_ids`` (logit columns follow that order).
    """
    n = o_P.shape[-2]
    if n != len(bank.entries):
        raise ValueError(
            f"classify: {n} prompt output rows but {len(bank.entries)} classifier heads"
        )
    if class_ids is None:
        picks = list(range(n))
    else:
        position = {cid: i for i, cid in enumerate(bank.class_ids)}
        try:
            picks = [position[int(c)] for c in class_ids]
        except KeyError as err:
            raise ValueError(f"classify: no head for class {err.args[0]}") from None
    heads = [bank.entries[i] for i in picks]
    return row_readout(o_P, picks, [e.weight for e in heads], [e.bias for e in heads])


def orthogonality_penalty(pool: PromptPool) -> Tensor:
    """Sum of squared off-diagonal cosines between prompt vectors."""
    if not pool.entries:
        raise ValueError("orthogonality_penalty: pool is empty")
    rows = []
    for e in pool.entries:
        if not np.any(e.vector.data):
            raise ValueError(f"orthogonality_penalty: prompt {e.class_id} has zero norm")
        sq = (e.vector * e.vector).sum()
        rows.append(reshape(e.vector * sq ** -0.5, (1, pool.dim)))
    normed = rows[0] if len(rows) == 1 else concat(rows, axis=0)
    gram = normed @ normed.transpose_last()
    off = gram * Tensor(1.0 - np.eye(len(rows)))
    return (off * off).sum()


def load_semantic_embeddings(path) -> SemanticInit:
    """Parse a tab-separated embedding table.

    One row per class: ``class_id<TAB>v1,v2,...,vD`` with a shared D across
    rows. Raises with the offending 1-based line number on malformed rows,
    duplicate ids, ragged dimensions, or an empty table.
    """
    vectors: dict[int, np.ndarray] = {}
    lines_seen: dict[int, int] = {}
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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
    return SemanticInit(vectors=vectors, dim=int(dim))

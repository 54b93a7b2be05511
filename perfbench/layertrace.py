"""Per-layer timing of promptcl from outside the package.

``install`` replaces every binding of the traced functions with a timing
wrapper: the defining module's attribute, every ``from .x import y`` copy
in the other promptcl modules, and class attributes for methods. Nothing
under ``src/`` changes; a run without ``install`` executes the original
functions untouched.

Each wrapped call is a span. A span's total time includes the spans it
calls; its self time excludes them. ``vit.sab_forward`` is split by block:
the k-th call inside one ``encoder_forward`` call is block k.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (module, attribute, span name); "Class.method" attributes patch the class.
TARGETS = [
    ("datagen", "load_dataset", "datagen.load_dataset"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "params_digest", "checkpoint.params_digest"),
    ("training", "simulate_pretraining", "training.simulate_pretraining"),
    ("training", "run_benchmark", "training.run_benchmark"),
    ("training", "train_stage", "training.train_stage"),
    ("training", "evaluate_session", "training.evaluate_session"),
    ("training", "Adam.step", "training.adam_step"),
    ("tensor", "backward", "tensor.backward"),
    ("losses", "asl_loss", "losses.asl_loss"),
    ("model", "forward_logits", "model.forward_logits"),
    ("model", "predict_probs", "model.predict_probs"),
    ("prompts", "classify", "prompts.classify"),
    ("prompts", "PromptPool.stacked", "prompts.stacked"),
    ("vit", "encoder_forward", "vit.encoder_forward"),
    ("vit", "patchify", "vit.patchify"),
    ("vit", "sab_forward", None),  # named vit.block<k>.fwd at call time
    ("vit", "_attention", "vit.attention"),
    ("vit", "_mlp", "vit.mlp"),
    ("adapters", "adapter_forward", "adapters.adapter_forward"),
    ("metrics", "per_class_ap", "metrics.per_class_ap"),
    ("metrics", "cf1_of1", "metrics.cf1_of1"),
    ("reporting", "write_report", "reporting.write_report"),
]
LAYERS = 4  # ModelConfig().layers; the block spans below assume it


def span_names() -> list[str]:
    names = [name for _, _, name in TARGETS if name is not None]
    return names + [f"vit.block{k}.fwd" for k in range(1, LAYERS + 1)]


class Tracer:
    """Call counts, total and self seconds per span, plus tape and I/O counts."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in span_names()}
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.top_level_s = 0.0              # seconds inside spans with no parent
        self.tape_entries = 0
        self.saved_paths: list[str] = []
        self.block = None                   # next block number inside encoder_forward
        self.stray_blocks = 0               # sab_forward calls outside encoder_forward

    def _timed(self, fn, name):
        stats, stack = self.stats, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                s = stats[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_s += dt

        return wrapper

    def _wrap(self, attr, fn, name):
        if attr == "sab_forward":
            return self._block_wrapper(fn)
        timed = self._timed(fn, name)
        if attr == "encoder_forward":
            def encoder(*args, **kwargs):
                self.block = 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    self.block = None
            return encoder
        if attr == "save_checkpoint":
            def save(path, *args, **kwargs):
                out = timed(path, *args, **kwargs)
                self.saved_paths.append(os.fspath(path))
                return out
            return save
        return timed

    def _block_wrapper(self, fn):
        timed = {k: self._timed(fn, f"vit.block{k}.fwd") for k in range(1, LAYERS + 1)}

        def block(*args, **kwargs):
            k = self.block
            if k is None or k not in timed:
                self.stray_blocks += 1
                return fn(*args, **kwargs)
            self.block = k + 1
            return timed[k](*args, **kwargs)
        return block

    def install(self) -> None:
        """Patch every promptcl binding of each target; call once per process."""
        tensor = importlib.import_module("promptcl.tensor")
        record = tensor.GradTape.record

        def counted_record(tape, *args):
            self.tape_entries += 1
            return record(tape, *args)

        tensor.GradTape.record = counted_record

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "promptcl" or n.startswith("promptcl."))]
        for mod_name, attr, name in TARGETS:
            home = importlib.import_module(f"promptcl.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(meth, getattr(cls, meth), name))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(attr, original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <span>_s, <span>.self_s and <span>_calls."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}_s"] = total
            out[f"{name}.self_s"] = self_s
            out[f"{name}_calls"] = calls
        backward_calls = self.stats["tensor.backward"][0]
        out["tensor.tape_entries"] = self.tape_entries
        out["tensor.tape_entries_per_step"] = self.tape_entries / backward_calls if backward_calls else 0.0
        out["checkpoint.bytes"] = sum(os.path.getsize(p) for p in self.saved_paths)
        return out

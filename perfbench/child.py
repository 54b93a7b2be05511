"""One benchmark repeat in a fresh process, as ``promptcl pretrain`` or ``promptcl run``.

Usage: child.py {pretrain|run} CONFIG OUT_DIR RESULT_JSON TRACE(0|1) VERIFY(0|1) SPAWNED

The child does what the CLI command does with the same config file:
parse it, load the inputs from disk, run, write the outputs. It times
set-up (from SPAWNED, the parent's ``time.monotonic()`` just before it
started this process, to inputs loaded) and the run, reads its own
resource usage, then (with VERIFY 1) checks its outputs against
independent oracles, and writes everything to RESULT_JSON. The checks run
after the measurements and are not part of any metric.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np
from promptcl import checkpoint, config, datagen, model, reporting, training

from layertrace import Tracer


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_ap(scores, labels) -> float:
    """All-points AP by walking the ranking; ties go to the lower index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return total / hits


def check_run(report_path, out_dir, cfg, dataset) -> list[str]:
    """Oracles for a ``run`` report that do not reuse promptcl's metric code."""
    errors = []
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    sessions = payload["sessions"]
    n_new = [len(s["new_class_ids"]) for s in sessions]
    learned = sorted(c for s in sessions for c in s["new_class_ids"])
    if learned != list(range(dataset.n_classes)):
        errors.append(f"sessions learned classes {learned}, expected all {dataset.n_classes}")
    for s, k in zip(sessions, n_new):
        ids = s["new_class_ids"]
        n = int(dataset.train_labels[:, ids].any(axis=1).sum())
        if s["n_train_samples"] != n:
            errors.append(f"session {s['session']}: {s['n_train_samples']} training samples, expected {n}")
        want_steps = cfg.epochs * math.ceil(n / min(cfg.batch_size, n))
        if s["steps"] != want_steps:
            errors.append(f"session {s['session']}: {s['steps']} steps, expected {want_steps}")
        if s["session"] > 1 and s["trainable_params"] != k * (2 * cfg.model.embed_dim + 1):
            errors.append(f"session {s['session']}: {s['trainable_params']} trainable parameters")
    for audit in payload["freeze_audit"]:
        if audit["digest_before"] != audit["digest_after"]:
            errors.append(f"session {audit['session']}: frozen parameters changed")
    final = os.path.join(out_dir, f"stage_{len(sessions):02d}.npz")
    if payload["hashes"]["final_checkpoint"] != sha256_file(final):
        errors.append("final checkpoint digest does not match the file on disk")
    maps = [s["map"] for s in sessions]
    if abs(payload["avg_map"] - sum(maps) / len(maps)) > 1e-12:
        errors.append("avg_map is not the mean of the session mAPs")
    rows = payload["accuracy_matrix"]
    drops = [max(r[t] for r in rows[t:]) - rows[-1][t] for t in range(len(rows) - 1)]
    if abs(payload["forgetting"] - (sum(drops) / len(drops) if drops else 0.0)) > 1e-12:
        errors.append("forgetting does not match the accuracy matrix")
    # Recompute the last session's mAP from the final checkpoint.
    state = checkpoint.load_checkpoint(final)
    probs = model.predict_probs(state, dataset.test_images, class_ids=learned)
    aps = [reference_ap(probs[:, j].tolist(), dataset.test_labels[:, c].tolist())
           for j, c in enumerate(learned) if dataset.test_labels[:, c].any()]
    if abs(sum(aps) / len(aps) - sessions[-1]["map"]) > 1e-9:
        errors.append(f"last mAP {sessions[-1]['map']!r} != recomputed {sum(aps) / len(aps)!r}")
    return errors


def check_pretrain(path, state, cfg, stats) -> list[str]:
    errors = []
    named = model.named_params(state)
    init_digest = checkpoint.params_digest(model.named_params(model.build_model(cfg.model, use_adapters=False)))
    if not all(np.isfinite(t.data).all() for t in named.values()):
        errors.append("pretrained backbone holds non-finite weights")
    if not math.isfinite(stats["last_loss"]):
        errors.append(f"pretraining ended with loss {stats['last_loss']}")
    if checkpoint.params_digest(named) == init_digest:
        errors.append("pretraining left the backbone at its initial weights")
    reloaded = checkpoint.load_checkpoint(path)
    if checkpoint.params_digest(model.named_params(reloaded)) != checkpoint.params_digest(named):
        errors.append("backbone checkpoint does not round-trip")
    if not reloaded.backbone.frozen:
        errors.append("backbone checkpoint is not frozen")
    return errors


def main(argv) -> int:
    mode, conf, out_dir, result_path, traced, verify, spawned = argv
    tracer = Tracer() if traced == "1" else None
    if tracer is not None:
        tracer.install()

    values = config.parse_config_file(conf)
    cfg = config.build_run_config(values)
    if mode == "pretrain":
        dataset = datagen.load_dataset(values["pretrain_dataset"])
    else:
        dataset = datagen.load_dataset(values["dataset"])
        donor = checkpoint.load_checkpoint(values["pretrain_checkpoint"])
    setup_s = time.monotonic() - float(spawned)
    t_ready = time.perf_counter()
    top_ready = tracer.top_level_s if tracer else 0.0

    if mode == "pretrain":
        state = model.build_model(cfg.model, use_adapters=False)
        t_fit = time.perf_counter()
        stats = training.simulate_pretraining(state, dataset, cfg)
        stage_s = time.perf_counter() - t_fit
        path = os.path.join(out_dir, "backbone.npz")
        checkpoint.save_checkpoint(path, state)
        t_done = time.perf_counter()
        steps, stages = stats["steps"], 1
        train_images = dataset.train_images.shape[0] * cfg.pretrain_epochs
    else:
        report = training.run_benchmark(cfg, dataset, out_dir=out_dir, backbone_from=donor)
        path = reporting.write_report(report, out_dir)["report"]
        t_done = time.perf_counter()
        sessions = report.payload["sessions"]
        steps, stages = sum(s["steps"] for s in sessions), len(sessions)
        train_images = sum(s["n_train_samples"] for s in sessions) * cfg.epochs
        stage_s = sum(report.timing["stage_seconds"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    run_s = t_done - t_ready
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "stage_s": stage_s,
        "train_images": train_images,
        "steps": steps,
        "stages": stages,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "digest": sha256_file(path),
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["trace.unattributed_s"] = run_s - (tracer.top_level_s - top_ready)
        result["layers"] = layers
        result["stray_blocks"] = tracer.stray_blocks

    if verify == "0":
        result["errors"] = []
    elif mode == "pretrain":
        result["errors"] = check_pretrain(path, state, cfg, stats)
    else:
        result["errors"] = check_run(path, out_dir, cfg, dataset)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

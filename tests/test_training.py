"""Optimizer, stage loop, freezing byte-parity, checkpoints, benchmark driver."""

import json

import numpy as np
import pytest

from promptcl import (
    Adam,
    AslConfig,
    ModelConfig,
    RunConfig,
    SyntheticSpec,
    Tensor,
    build_model,
    build_task_stream,
    cosine_lr,
    evaluate_session,
    forward_logits,
    generate_dataset,
    load_checkpoint,
    params_digest,
    run_benchmark,
    save_checkpoint,
    simulate_pretraining,
    train_stage,
)
from promptcl.adapters import compute_trainable_mask
from promptcl.model import named_params
from promptcl.prompts import add_class_prompts, freeze_previous
from promptcl.tensor import active_tape
from promptcl.training import _fit

MICRO_MODEL = dict(embed_dim=8, layers=2, heads=2, image_side=8, patch_side=4,
                   prompt_layer=1, adapter_start=2, adapter_dim=3, seed=0)


def micro_config(**overrides):
    kw = dict(model=ModelConfig(**MICRO_MODEL), base_classes=2, inc_classes=2,
              lr=5e-3, epochs=2, batch_size=16, pretrain_epochs=2)
    kw.update(overrides)
    return RunConfig(**kw)


def micro_dataset(seed=1, **spec_overrides):
    spec_kw = dict(n_classes=6, image_side=8, stamp_side=4, n_train=60, n_test=40,
                   min_labels=1, max_labels=2, min_positive=5, stamp_seed=3)
    spec_kw.update(spec_overrides)
    return generate_dataset(SyntheticSpec(**spec_kw), seed=seed)


# -- optimizer --------------------------------------------------------------


def test_adam_matches_reference_updates():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"p": p})
    m = np.zeros(2)
    v = np.zeros(2)
    ref = p.data.copy()
    for step, g in enumerate([np.array([0.5, -1.0]), np.array([-0.25, 2.0])], start=1):
        p.grad = g.copy()
        opt.step(lr=0.1)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**step)
        vh = v / (1 - 0.999**step)
        ref = ref - 0.1 * mh / (np.sqrt(vh) + 1e-8)
        assert np.allclose(p.data, ref, atol=1e-15)


def test_adam_treats_missing_grad_as_zero():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p})
    p.grad = None
    opt.step(lr=0.1)
    assert np.array_equal(p.data, [1.0])


def test_cosine_schedule_endpoints():
    assert cosine_lr(1.0, 0, 10) == 1.0
    assert abs(cosine_lr(1.0, 9, 10)) <= 1e-15
    assert abs(cosine_lr(2.0, 5, 11) - 1.0) <= 1e-12  # halfway
    assert cosine_lr(3.0, 0, 1) == 3.0
    values = [cosine_lr(1.0, s, 20) for s in range(20)]
    assert values == sorted(values, reverse=True)


# -- stage training -------------------------------------------------------


def test_stage_training_reduces_loss():
    ds = micro_dataset()
    cfg = micro_config(epochs=4)
    state = build_model(cfg.model)
    stream = build_task_stream(ds, 2, 2)
    task = stream.tasks[0]
    add_class_prompts(state.pool, state.bank, task.class_ids, stage=1)

    from promptcl import asl_loss, mask_to_task
    images = ds.train_images[task.train_indices]
    labels = mask_to_task(ds.train_labels[task.train_indices], task.class_ids)
    before = float(asl_loss(forward_logits(state, images, task.class_ids), labels, cfg.asl).data)
    stats = train_stage(state, task, ds, cfg)
    after = float(asl_loss(forward_logits(state, images, task.class_ids), labels, cfg.asl).data)
    assert after < before
    assert stats["steps"] == cfg.epochs * int(np.ceil(task.train_indices.size / cfg.batch_size))


def test_stage_two_leaves_frozen_bytes_untouched():
    ds = micro_dataset()
    cfg = micro_config()
    state = build_model(cfg.model)
    stream = build_task_stream(ds, 2, 2)

    add_class_prompts(state.pool, state.bank, stream.tasks[0].class_ids, stage=1)
    train_stage(state, stream.tasks[0], ds, cfg)

    add_class_prompts(state.pool, state.bank, stream.tasks[1].class_ids, stage=2)
    freeze_previous(state.pool, state.bank, current_stage=2)
    mask = compute_trainable_mask(2, state.pool, state.bank, state.adapters, state.backbone)
    frozen_names = sorted(n for n, on in mask.items() if not on)
    before = params_digest(named_params(state), frozen_names)
    train_stage(state, stream.tasks[1], ds, cfg, mask=mask)
    after = params_digest(named_params(state), frozen_names)
    assert before == after
    # and the new entries did move
    new_names = sorted(n for n, on in mask.items() if on)
    assert params_digest(named_params(state), new_names) != before


def test_fit_restores_requires_grad():
    ds = micro_dataset()
    cfg = micro_config(epochs=1)
    state = build_model(cfg.model)
    stream = build_task_stream(ds, 2, 2)
    add_class_prompts(state.pool, state.bank, stream.tasks[0].class_ids, stage=1)
    train_stage(state, stream.tasks[0], ds, cfg)
    assert all(t.requires_grad for t in named_params(state).values())


def test_fit_rejects_empty_mask_and_empty_data():
    ds = micro_dataset()
    cfg = micro_config()
    state = build_model(cfg.model)
    stream = build_task_stream(ds, 2, 2)
    task = stream.tasks[0]
    add_class_prompts(state.pool, state.bank, task.class_ids, stage=1)
    mask = {name: False for name in named_params(state)}
    with pytest.raises(ValueError):
        train_stage(state, task, ds, cfg, mask=mask)
    images = ds.train_images[:0]
    with pytest.raises(ValueError):
        _fit(state, images, np.zeros((0, 2)), task.class_ids,
             {n: True for n in named_params(state)}, 1, cfg, (0, "x"))


def test_fit_leaves_tape_and_flags_clean_after_an_error():
    ds = micro_dataset()
    cfg = micro_config(epochs=1)
    state = build_model(cfg.model)
    task = build_task_stream(ds, 2, 2).tasks[0]
    add_class_prompts(state.pool, state.bank, task.class_ids, stage=1)
    mask = compute_trainable_mask(1, state.pool, state.bank, state.adapters, state.backbone)
    images = ds.train_images[task.train_indices]
    labels = np.zeros((images.shape[0], len(task.class_ids)))
    labels[0, 0] = 2.0  # asl_loss rejects it after the forward pass has filled the tape
    with pytest.raises(ValueError, match="0/1"):
        _fit(state, images, labels, task.class_ids, mask, 1, cfg, (0, "x"))
    assert len(active_tape()) == 0
    assert all(t.requires_grad for t in named_params(state).values())


def test_stage_with_a_nan_pixel_stops_before_the_weights_move():
    ds = micro_dataset()
    cfg = micro_config(epochs=1)
    state = build_model(cfg.model)
    task = build_task_stream(ds, 2, 2).tasks[0]
    add_class_prompts(state.pool, state.bank, task.class_ids, stage=1)
    ds.train_images[:, 3, 5] = np.nan  # one bad pixel in every image: step 0 diverges
    before = params_digest(named_params(state))
    with pytest.raises(ValueError, match="stage 1: loss is nan at step 0"):
        train_stage(state, task, ds, cfg)
    assert params_digest(named_params(state)) == before
    assert len(active_tape()) == 0


def test_training_is_seed_deterministic():
    def one_run():
        ds = micro_dataset()
        cfg = micro_config()
        state = build_model(cfg.model)
        stream = build_task_stream(ds, 2, 2)
        add_class_prompts(state.pool, state.bank, stream.tasks[0].class_ids, stage=1)
        train_stage(state, stream.tasks[0], ds, cfg)
        return params_digest(named_params(state))

    assert one_run() == one_run()


# -- pretraining ------------------------------------------------------------


def test_pretraining_updates_then_freezes_backbone():
    pre = micro_dataset(seed=9, stamp_seed=11)
    cfg = micro_config()
    state = build_model(cfg.model)
    before = params_digest(state.backbone.named())
    stats = simulate_pretraining(state, pre, cfg)
    assert params_digest(state.backbone.named()) != before
    assert state.backbone.frozen
    assert not state.pool.entries and not state.bank.entries
    assert stats["steps"] > 0


def test_pretraining_rejects_populated_pool():
    pre = micro_dataset(seed=9)
    cfg = micro_config()
    state = build_model(cfg.model)
    add_class_prompts(state.pool, state.bank, [0], stage=1)
    with pytest.raises(ValueError):
        simulate_pretraining(state, pre, cfg)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the layer norm
def test_diverging_pretraining_names_itself_and_refreezes_backbone():
    pre = micro_dataset(seed=9)
    pre.train_images[:, 0, 0] = np.inf
    cfg = micro_config()
    state = build_model(cfg.model)
    with pytest.raises(ValueError, match="pretraining: loss is nan at step 0"):
        simulate_pretraining(state, pre, cfg)
    assert state.backbone.frozen is True
    assert len(active_tape()) == 0


# -- evaluation --------------------------------------------------------------


def test_evaluate_session_shape_and_order_guard():
    ds = micro_dataset()
    cfg = micro_config()
    state = build_model(cfg.model)
    stream = build_task_stream(ds, 2, 2)
    add_class_prompts(state.pool, state.bank, stream.tasks[0].class_ids, stage=1)
    metrics, row = evaluate_session(state, ds, stream, upto_stage=1)
    assert metrics.session == 1 and len(row) == 1
    assert 0.0 <= metrics.map <= 1.0
    assert set(metrics.per_class_ap_by_id) <= set(stream.tasks[0].class_ids)
    with pytest.raises(ValueError):
        evaluate_session(state, ds, stream, upto_stage=2)  # classes not added yet


# -- checkpoints --------------------------------------------------------------


def trained_micro_state():
    ds = micro_dataset()
    cfg = micro_config(epochs=1)
    state = build_model(cfg.model)
    stream = build_task_stream(ds, 2, 2)
    add_class_prompts(state.pool, state.bank, stream.tasks[0].class_ids, stage=1)
    train_stage(state, stream.tasks[0], ds, cfg)
    add_class_prompts(state.pool, state.bank, stream.tasks[1].class_ids, stage=2)
    freeze_previous(state.pool, state.bank, 2)
    return state


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    state = trained_micro_state()
    path = tmp_path / "model.npz"
    save_checkpoint(path, state)
    back = load_checkpoint(path)
    assert params_digest(named_params(back)) == params_digest(named_params(state))
    assert back.pool.class_ids == state.pool.class_ids
    assert [e.frozen for e in back.pool.entries] == [e.frozen for e in state.pool.entries]
    assert [e.stage_added for e in back.bank.entries] == [e.stage_added for e in state.bank.entries]
    assert back.backbone.frozen == state.backbone.frozen
    assert back.adapters is not None and len(back.adapters) == len(state.adapters)
    # save the reload: identical parameter bytes again
    path2 = tmp_path / "model2.npz"
    save_checkpoint(path2, back)
    again = load_checkpoint(path2)
    assert params_digest(named_params(again)) == params_digest(named_params(state))


def test_checkpoint_preserves_predictions(tmp_path):
    state = trained_micro_state()
    ds = micro_dataset()
    logits = forward_logits(state, ds.test_images[:4]).data
    save_checkpoint(tmp_path / "m.npz", state)
    back = load_checkpoint(tmp_path / "m.npz")
    assert np.array_equal(forward_logits(back, ds.test_images[:4]).data, logits)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_format_tag(tmp_path):
    state = trained_micro_state()
    path = tmp_path / "m.npz"
    save_checkpoint(path, state)
    with np.load(path) as bundle:
        blobs = {k: bundle[k] for k in bundle.files}
    meta = json.loads(blobs["__meta__"].tobytes().decode())
    meta["format"] = "something-else"
    blobs["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **blobs)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_array(tmp_path):
    state = trained_micro_state()
    path = tmp_path / "m.npz"
    save_checkpoint(path, state)
    with np.load(path) as bundle:
        blobs = {k: bundle[k] for k in bundle.files}
    del blobs["prompt.0000"]
    np.savez(path, **blobs)
    with pytest.raises(ValueError):
        load_checkpoint(path)


# -- benchmark driver --------------------------------------------------------


def run_micro_benchmark(**overrides):
    ds = micro_dataset()
    cfg = micro_config(**overrides)
    return run_benchmark(cfg, ds)


def test_benchmark_payload_structure():
    report = run_micro_benchmark()
    p = report.payload
    assert p["format"] == "promptcl-report-1"
    assert [s["session"] for s in p["sessions"]] == [1, 2, 3]
    assert [len(r) for r in p["accuracy_matrix"]] == [1, 2, 3]
    assert p["last_map"] == p["sessions"][-1]["map"]
    assert 0.0 <= p["forgetting"]
    assert p["pretrained"] is False
    assert len(p["freeze_audit"]) == 3
    for audit in p["freeze_audit"]:
        assert audit["digest_before"] == audit["digest_after"]
    assert p["sessions"][1]["trainable_params"] == 2 * (2 * 8 + 1)
    assert p["hashes"]["final_checkpoint"]
    assert report.timing["total_seconds"] > 0


def test_benchmark_report_json_is_deterministic():
    a = run_micro_benchmark().to_json()
    b = run_micro_benchmark().to_json()
    assert a == b
    assert "seconds" not in a  # timing lives outside the payload


def test_benchmark_fine_tuning_trains_everything():
    report = run_micro_benchmark(method="fine_tuning")
    p = report.payload
    assert p["method"] == "fine_tuning"
    # every stage retrains the full network: parameter counts dwarf the
    # per-class budget and the freeze audit has nothing frozen to hash
    assert all(s["trainable_params"] > 1000 for s in p["sessions"])
    assert all(audit["frozen_arrays"] == 0 for audit in p["freeze_audit"])


def test_benchmark_donor_backbone_and_conflicts(tmp_path):
    pre = micro_dataset(seed=9, stamp_seed=11)
    ds = micro_dataset()
    cfg = micro_config(epochs=1, pretrain_epochs=1)
    state = build_model(cfg.model)
    simulate_pretraining(state, pre, cfg)
    save_checkpoint(tmp_path / "backbone.npz", state)
    donor = load_checkpoint(tmp_path / "backbone.npz")
    report = run_benchmark(cfg, ds, backbone_from=donor)
    assert report.payload["pretrained"] is True
    with pytest.raises(ValueError):
        run_benchmark(cfg, ds, pretrain=pre, backbone_from=donor)
    other = build_model(ModelConfig(**{**MICRO_MODEL, "embed_dim": 16, "adapter_dim": 4}))
    with pytest.raises(ValueError):
        run_benchmark(cfg, ds, backbone_from=other)


def test_fine_tuning_leaves_the_donor_backbone_alone():
    cfg = micro_config(epochs=1, method="fine_tuning")
    donor = build_model(cfg.model)
    before = params_digest(named_params(donor))
    report = run_benchmark(cfg, micro_dataset(), backbone_from=donor)
    assert all(s["trainable_params"] > 1000 for s in report.payload["sessions"])
    assert params_digest(named_params(donor)) == before
    assert donor.backbone.frozen is True


def test_benchmark_writes_stage_checkpoints(tmp_path):
    ds = micro_dataset()
    cfg = micro_config(epochs=1)
    run_benchmark(cfg, ds, out_dir=str(tmp_path))
    for stage in (1, 2, 3):
        assert (tmp_path / f"stage_{stage:02d}.npz").exists()
    final = load_checkpoint(tmp_path / "stage_03.npz")
    assert final.pool.class_ids == list(range(6))
    assert [e.frozen for e in final.pool.entries] == [True] * 4 + [False] * 2

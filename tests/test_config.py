"""Flat key = value config files: schema, defaults, parse errors."""

import pytest

from promptcl.cli import build_parser
from promptcl.config import build_run_config, default_config, parse_config_file, print_config
from promptcl.protocol import METHODS, RunConfig


def test_defaults_match_schema():
    values = default_config()
    assert values["method"] == "p2l_ca"
    assert values["embed_dim"] == 32 and values["layers"] == 4
    assert values["prompt_layer"] == 2 and values["adapter_start"] == 3
    assert values["gamma_neg"] == 4.0 and values["use_adapters"] is True


def test_parse_overrides_and_comments(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# a comment\n"
        "\n"
        "method = fine_tuning\n"
        "epochs = 7  # inline comment\n"
        "lr = 1e-3\n"
        "use_adapters = false\n"
        "dataset = data/bench#1\n"
    )
    values = parse_config_file(path)
    assert values["method"] == "fine_tuning"
    assert values["epochs"] == 7
    assert values["lr"] == 1e-3
    assert values["use_adapters"] is False
    assert values["dataset"] == "data/bench#1"  # hash without whitespace is literal
    assert values["batch_size"] == 64  # untouched default


@pytest.mark.parametrize(
    "body, lineno, needle",
    [
        ("method p2l_ca\n", 1, "key = value"),
        ("methods = p2l_ca\n", 1, "unknown key"),
        ("epochs = x\n", 1, "bad value"),
        ("seed = 1\nuse_adapters = perhaps\n", 2, "bad value"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, body, lineno, needle):
    path = tmp_path / "bad.conf"
    path.write_text(body)
    with pytest.raises(ValueError) as exc:
        parse_config_file(path)
    msg = str(exc.value)
    assert f"line {lineno}" in msg and needle in msg


def test_printed_template_round_trips(tmp_path):
    path = tmp_path / "template.conf"
    path.write_text(print_config())
    assert parse_config_file(path) == default_config()


def test_build_run_config_wires_model_and_loss(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "embed_dim = 8\nlayers = 2\nheads = 2\nimage_side = 8\npatch_side = 4\n"
        "prompt_layer = 1\nadapter_start = 2\nadapter_dim = 3\n"
        "gamma_neg = 2.0\nbase_classes = 2\ninc_classes = 2\nseed = 5\n"
    )
    cfg = build_run_config(parse_config_file(path))
    assert cfg.model.embed_dim == 8 and cfg.model.seed == 5
    assert cfg.asl.gamma_neg == 2.0
    assert cfg.base_classes == 2 and cfg.seed == 5


def test_build_run_config_surfaces_model_validation(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("image_side = 10\n")
    with pytest.raises(ValueError):
        build_run_config(parse_config_file(path))


# The file keys and defaults as declared before the schema was derived from
# the config dataclasses; the derivation must reproduce them exactly.
DECLARED_DEFAULTS = {
    "dataset": "", "pretrain_dataset": "", "pretrain_checkpoint": "", "out_dir": "runs",
    "method": "p2l_ca", "seed": 0, "embed_dim": 32, "layers": 4, "heads": 4,
    "image_side": 16, "patch_side": 4, "prompt_layer": 2, "adapter_start": 3,
    "adapter_dim": 8, "gamma_pos": 0.0, "gamma_neg": 4.0, "clamp_eps": 1e-7,
    "base_classes": 4, "inc_classes": 4, "lr": 4e-4, "epochs": 20, "batch_size": 64,
    "pretrain_epochs": 15, "threshold": 0.5, "use_adapters": True, "ca_unfrozen": False,
    "prompts_unfrozen": False, "ortho_weight": 0.0, "semantic_embeddings": "",
}

PRINTED_LINES = {
    "# promptcl run configuration (defaults)",
    "dataset             =   # directory of the benchmark dataset (required for run)",
    "pretrain_dataset    =   # directory of the pretraining dataset (for the pretrain command)",
    "pretrain_checkpoint =   # checkpoint whose backbone seeds the run (optional)",
    "out_dir             = runs  # where reports and checkpoints are written",
    "method              = p2l_ca  # p2l_ca | p2l_ca_plus | fine_tuning",
    "seed                = 0  # master seed for init, batching and data order",
    "embed_dim           = 32  # token embedding width",
    "layers              = 4  # number of transformer blocks",
    "heads               = 4  # attention heads per block",
    "image_side          = 16  # input image side length",
    "patch_side          = 4  # patch side length",
    "prompt_layer        = 2  # prompts join after this many blocks",
    "adapter_start       = 3  # first adapted block (1-indexed)",
    "adapter_dim         = 8  # adapter bottleneck width",
    "gamma_pos           = 0.0  # positive focusing power of the asymmetric loss",
    "gamma_neg           = 4.0  # negative focusing power of the asymmetric loss",
    "clamp_eps           = 1e-07  # probability clamp for the loss",
    "base_classes        = 4  # classes in the first task (0 means inc_classes)",
    "inc_classes         = 4  # classes added by each later task",
    "lr                  = 0.0004  # initial Adam learning rate (cosine-decayed per stage)",
    "epochs              = 20  # epochs per incremental stage",
    "batch_size          = 64  # minibatch size (capped by the task's sample count)",
    "pretrain_epochs     = 15  # epochs for the one-off backbone pretraining",
    "threshold           = 0.5  # probability threshold for CF1/OF1",
    "use_adapters        = True  # attach bottleneck adapters",
    "ca_unfrozen         = False  # ablation: keep adapters trainable in every stage",
    "prompts_unfrozen    = False  # ablation: keep old prompts trainable",
    "ortho_weight        = 0.0  # weight of the prompt orthogonality penalty (0 disables)",
    "semantic_embeddings =   # embedding table for p2l_ca_plus prompt init",
}


def test_default_config_matches_declared_keys():
    values = default_config()
    assert values == DECLARED_DEFAULTS
    assert {k: type(v) for k, v in values.items()} == {k: type(v) for k, v in DECLARED_DEFAULTS.items()}


def test_print_config_lines_match_declared_template():
    assert set(print_config().splitlines()) == PRINTED_LINES


def test_default_values_build_the_default_run_config():
    cfg = build_run_config(default_config())
    assert cfg.to_dict() == RunConfig().to_dict()
    assert cfg.model.seed == cfg.seed


def test_semantic_embeddings_key_sets_semantic_path(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("semantic_embeddings = emb.tsv\nseed = 3\n")
    cfg = build_run_config(parse_config_file(path))
    assert cfg.semantic_path == "emb.tsv" and cfg.model.seed == 3


def test_method_choices_come_from_methods():
    parser = build_parser()
    run = parser._subparsers._group_actions[0].choices["run"]
    method = next(a for a in run._actions if a.dest == "method")
    assert tuple(method.choices) == METHODS

"""End-to-end command line behavior on a miniature benchmark."""

import argparse
import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import failing_open
from promptcl import (ShiftParams, SyntheticSpec, cli, generate_dataset, load_checkpoint, load_dataset, reporting,
                      training)
from promptcl.cli import build_parser, main
from promptcl.reporting import Report, write_report

MICRO_CONF = """
dataset     = {dataset}
out_dir     = {out_dir}
embed_dim   = 8
layers      = 2
heads       = 2
image_side  = 8
patch_side  = 4
prompt_layer  = 1
adapter_start = 2
adapter_dim   = 3
base_classes  = 8
inc_classes   = 1
epochs        = 1
batch_size    = 32
lr            = 5e-3
seed          = 0
"""


def gen_data_args(path, classes=12, train=120, test=80):
    return [
        "gen-data", "--out", str(path), "--classes", str(classes),
        "--image-side", "8", "--stamp-side", "4", "--train", str(train),
        "--test", str(test), "--max-labels", "3", "--min-positive", "5",
        "--stamp-seed", "3", "--seed", "1",
    ]


def gen_micro_dataset(path, classes=12, train=120, test=80):
    assert main(gen_data_args(path, classes, train, test)) == 0
    return path


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    """One CLI benchmark run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    data = gen_micro_dataset(root / "data")
    out_dir = root / "runs"
    conf = root / "run.conf"
    conf.write_text(MICRO_CONF.format(dataset=data, out_dir=out_dir))
    rc = main(["run", "--config", str(conf)])
    assert rc == 0
    return {"root": root, "data": data, "out_dir": out_dir, "conf": conf}


def test_gen_data_writes_loadable_dataset(tmp_path, capsys):
    path = gen_micro_dataset(tmp_path / "ds", classes=6, train=60, test=40)
    out = capsys.readouterr().out
    assert "60 train / 40 test" in out
    ds = load_dataset(str(path))
    assert ds.n_classes == 6
    assert ds.train_images.shape == (60, 8, 8)


def test_gen_data_shift_flags(tmp_path):
    plain = gen_micro_dataset(tmp_path / "plain", classes=6, train=60, test=40)
    rc = main([
        "gen-data", "--out", str(tmp_path / "shifted"), "--classes", "6",
        "--image-side", "8", "--stamp-side", "4", "--train", "60", "--test", "40",
        "--max-labels", "3", "--min-positive", "5", "--stamp-seed", "3", "--seed", "1",
        "--shift-contrast", "1.5", "--shift-offset", "0.2",
    ])
    assert rc == 0
    a = load_dataset(str(plain))
    b = load_dataset(str(tmp_path / "shifted"))
    assert np.allclose(b.train_images, a.train_images * 1.5 + 0.2, atol=1e-12)


def gen_data_parser():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["gen-data"]


def test_gen_data_flags_keep_their_names_defaults_and_types():
    g = gen_data_parser()
    flags = {a.option_strings[0]: (a.default, a.type) for a in g._actions if a.dest != "help"}
    assert flags == {
        "--out": (None, None), "--seed": (0, int), "--classes": (12, int), "--image-side": (16, int),
        "--stamp-side": (4, int), "--train": (600, int), "--test": (300, int), "--min-labels": (1, int),
        "--max-labels": (3, int), "--min-positive": (20, int), "--noise-sigma": (0.05, float),
        "--stamp-seed": (7, int), "--shift-contrast": (1.0, float), "--shift-offset": (0.0, float),
        "--shift-cells": (None, int), "--cell-side": (4, int),
    }
    usage = g.format_help()
    assert "--classes CLASSES" in usage and "--shift-cells SHIFT_CELLS" in usage
    assert "seed for a fixed cell permutation (omit to disable)" in usage


@pytest.mark.parametrize("flags, shift", [
    (["--shift-contrast", "1.3", "--shift-offset", "-0.2", "--shift-cells", "2", "--cell-side", "6"],
     ShiftParams(contrast=1.3, offset=-0.2, cell_perm_seed=2, cell_side=6)),
    (["--cell-side", "6"], None),
], ids=["every-flag", "cell-side-alone-is-no-shift"])
def test_gen_data_writes_the_dataset_of_the_spec_its_flags_spell(tmp_path, flags, shift):
    rc = main([
        "gen-data", "--out", str(tmp_path / "cli"), "--classes", "5", "--image-side", "12",
        "--stamp-side", "3", "--train", "50", "--test", "40", "--min-labels", "2", "--max-labels", "3",
        "--min-positive", "4", "--noise-sigma", "0.1", "--stamp-seed", "9", "--seed", "4", *flags,
    ])
    assert rc == 0
    spec = SyntheticSpec(n_classes=5, image_side=12, stamp_side=3, n_train=50, n_test=40, min_labels=2,
                         max_labels=3, min_positive=4, noise_sigma=0.1, stamp_seed=9, shift=shift)
    generate_dataset(spec, 4, out_dir=str(tmp_path / "direct"))
    files = sorted(p.relative_to(tmp_path / "direct") for p in (tmp_path / "direct").rglob("*") if p.is_file())
    assert len(files) == 1 + 50 + 40
    for rel in files:
        assert (tmp_path / "cli" / rel).read_bytes() == (tmp_path / "direct" / rel).read_bytes(), rel


def test_run_produces_report_files(micro_run, capsys):
    out_dir = micro_run["out_dir"]
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["sessions"]) == 5  # 8 base + 4 x 1 incremental
    assert report["method"] == "p2l_ca"
    assert [len(r) for r in report["accuracy_matrix"]] == [1, 2, 3, 4, 5]
    with open(out_dir / "sessions.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["session", "new_classes", "trainable_params", "map"]
    assert len(rows) == 6
    assert (out_dir / "timing.json").exists()
    for stage in range(1, 6):
        assert (out_dir / f"stage_{stage:02d}.npz").exists()


def test_run_rerender_report(micro_run, capsys):
    rc = main(["report", str(micro_run["out_dir"] / "report.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "method" in out and "p2l_ca" in out
    assert "last mAP" in out and "forgetting" in out


def test_run_method_override(micro_run, tmp_path, capsys):
    out_dir = tmp_path / "ft_runs"
    conf = tmp_path / "ft.conf"
    conf.write_text(MICRO_CONF.format(dataset=micro_run["data"], out_dir=out_dir))
    rc = main(["run", "--config", str(conf), "--method", "fine_tuning"])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["method"] == "fine_tuning"
    assert len(report["sessions"]) == 5


def test_dump_prompts_csv(micro_run, tmp_path, capsys):
    ckpt = micro_run["out_dir"] / "stage_05.npz"
    out = tmp_path / "prompts.csv"
    rc = main(["dump-prompts", "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["class_id", "stage_added", "frozen"]
    assert len(rows[0]) == 3 + 8  # embed_dim vector entries
    assert len(rows) == 1 + 12
    stages = sorted({int(r[1]) for r in rows[1:]})
    assert stages == [1, 2, 3, 4, 5]


def test_dump_prompts_to_stdout(micro_run, capsys):
    ckpt = micro_run["out_dir"] / "stage_01.npz"
    rc = main(["dump-prompts", "--checkpoint", str(ckpt)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("class_id,stage_added,frozen")
    assert len(out.strip().splitlines()) == 1 + 8


REPORT_FILES = ["report.json", "sessions.csv", "timing.json"]


@pytest.mark.parametrize("name", REPORT_FILES)
def test_a_failed_report_write_leaves_the_old_file_intact(micro_run, tmp_path, monkeypatch, name):
    for n in REPORT_FILES:
        shutil.copy(micro_run["out_dir"] / n, tmp_path / n)
    old = (tmp_path / name).read_bytes()
    payload = json.loads(old if name == "report.json" else (tmp_path / "report.json").read_bytes())
    payload["sessions"] = payload["sessions"][:2]
    monkeypatch.setattr(reporting, "open", failing_open(tmp_path / name), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_report(Report(payload, timing={"run_s": 1.0}), tmp_path)
    assert (tmp_path / name).read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == REPORT_FILES  # no temporary file left behind


def test_a_failed_prompt_dump_leaves_the_old_csv_intact(micro_run, tmp_path, monkeypatch, capsys):
    out = tmp_path / "prompts.csv"
    out.write_text("old\n")
    monkeypatch.setattr(cli, "open", failing_open(out), raising=False)
    rc = main(["dump-prompts", "--checkpoint", str(micro_run["out_dir"] / "stage_05.npz"), "--out", str(out)])
    assert rc == 1 and capsys.readouterr().err.startswith("error: [Errno 28] No space left")
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["prompts.csv"]


def test_print_config_exits_clean(capsys):
    rc = main(["run", "--print-config"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "embed_dim" in out and "gamma_neg" in out


def test_run_without_config_fails(capsys):
    rc = main(["run"])
    assert rc == 1
    assert "config" in capsys.readouterr().err


def test_config_error_is_line_numbered(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("seed = 1\nnot_a_key = 2\n")
    rc = main(["run", "--config", str(conf)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "not_a_key" in err


def test_unknown_subcommand_shows_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err


def test_missing_dataset_directory_fails(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(MICRO_CONF.format(dataset=tmp_path / "absent", out_dir=tmp_path / "o"))
    rc = main(["run", "--config", str(conf)])
    assert rc == 1
    assert "manifest" in capsys.readouterr().err


def test_env_var_overrides_out_dir(tmp_path, monkeypatch, capsys):
    forced = tmp_path / "forced"
    monkeypatch.setenv("PROMPTCL_OUT_DIR", str(forced))
    gen_micro_dataset(tmp_path / "ignored-flag-target", classes=6, train=60, test=40)
    assert (forced / "manifest.txt").exists()
    assert not (tmp_path / "ignored-flag-target").exists()


def test_pretrain_out_makes_no_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PROMPTCL_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    data = gen_micro_dataset(tmp_path / "data", classes=6, train=60, test=40)
    conf = tmp_path / "p.conf"
    conf.write_text(MICRO_CONF.format(dataset=data, out_dir="")
                    + f"pretrain_dataset = {data}\npretrain_epochs = 1\n")
    assert main(["pretrain", "--config", str(conf), "--out", "bb.npz"]) == 0
    assert "saved to bb.npz" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bb.npz", "data", "p.conf"]


@pytest.mark.parametrize("command", ["run", "pretrain", "gen-data"])
def test_an_out_dir_that_cannot_be_made_fails_before_any_training(tmp_path, monkeypatch, capsys, command):
    # An out dir below a regular file cannot be made, as root, whom a
    # read-only directory does not stop, finds too. Each command must say
    # so in one error line before it pretrains or draws anything.
    monkeypatch.delenv("PROMPTCL_OUT_DIR", raising=False)
    data = gen_micro_dataset(tmp_path / "data")
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "out"
    conf = tmp_path / "p.conf"
    conf.write_text(MICRO_CONF.format(dataset=data, out_dir=out_dir)
                    + f"pretrain_dataset = {data}\npretrain_epochs = 1\n")
    calls = []
    pretrain = training.simulate_pretraining

    def spy(*args):
        calls.append(args)
        return pretrain(*args)

    monkeypatch.setattr(training, "simulate_pretraining", spy)
    monkeypatch.setattr(cli, "simulate_pretraining", spy)
    capsys.readouterr()
    argv = {"run": ["run", "--config", str(conf)], "pretrain": ["pretrain", "--config", str(conf)],
            "gen-data": gen_data_args(out_dir)}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Not a directory" in err, err  # no traceback
    assert calls == []
    assert blocker.read_text() == ""


def test_a_run_killed_after_its_first_stage_leaves_every_output_whole_or_absent(tmp_path):
    # SIGKILL runs no clean-up: the run may leave the temporary file it was
    # writing, <name>.<pid>.tmp (see seeds.replacing), but every file it
    # names must load or be absent. Enough epochs keep the run in its later
    # stages long after the first checkpoint appears.
    data = gen_micro_dataset(tmp_path / "data")
    out_dir = tmp_path / "runs"
    conf = tmp_path / "run.conf"
    conf.write_text(MICRO_CONF.format(dataset=data, out_dir=out_dir).replace("epochs        = 1", "epochs = 120"))
    proc = subprocess.Popen([sys.executable, "-m", "promptcl.cli", "run", "--config", str(conf)], cwd=tmp_path,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 300
        while not (out_dir / "stage_01.npz").exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
    finally:
        proc.kill()  # SIGKILL, here or after a failure above: no run is left behind
        _, err = proc.communicate()
    assert proc.returncode == -signal.SIGKILL, err  # killed, not finished or failed
    names = sorted(p.name for p in out_dir.iterdir())
    stages = [n for n in names if n.startswith("stage_") and n.endswith(".npz")]
    assert stages and stages[0] == "stage_01.npz" and len(stages) < 5, names
    for name in stages:
        load_checkpoint(out_dir / name)
    for name in ("report.json", "timing.json"):
        if (out_dir / name).exists():
            json.loads((out_dir / name).read_text())
    if (out_dir / "sessions.csv").exists():
        with open(out_dir / "sessions.csv", newline="") as fh:
            assert list(csv.reader(fh))[0][0] == "session"
    left = set(names) - set(stages) - {"report.json", "sessions.csv", "timing.json"}
    assert all(n.endswith(f".{proc.pid}.tmp") for n in left), names


ROOT = Path(__file__).resolve().parent.parent

# The body of the launcher that pip writes for a `module:attr` console script.
LAUNCHER = """\
import sys
from {module} import {attr}
sys.argv[0] = "promptcl"
sys.exit({attr}())
"""


def test_console_script_is_installed(tmp_path):
    """The declared `promptcl` entry point runs as an installed launcher would."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "promptcl" in scripts
    module, attr = scripts["promptcl"].split(":")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = LAUNCHER.format(module=module.strip(), attr=attr.strip())
    proc = subprocess.run(
        [sys.executable, "-c", code, "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: promptcl ")
    assert "gen-data" in proc.stdout and "dump-prompts" in proc.stdout


@pytest.mark.skipif(shutil.which("promptcl") is None,
                    reason="no installed promptcl executable on PATH")
def test_installed_console_script_on_path():
    proc = subprocess.run(["promptcl", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout and "dump-prompts" in proc.stdout

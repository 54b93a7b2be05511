"""Damaged or malformed input files: the CLI answers with one ``error:`` line, never a traceback.

A checkpoint is cut at any offset or has one bit flipped, either anywhere
or inside its zip headers, where most flips are not caught by a content
checksum. The same is done to one ``.sample`` file of a dataset. Each case
must either fail with exit code 1 and a single ``error:`` line on stderr,
or succeed with exactly the output of the intact file (a flipped zip
timestamp, say, changes no content). Checkpoint arrays that disagree with
the metadata or hold non-finite, non-numeric or pickled values, checkpoint
metadata that is not UTF-8 JSON, configs and ``gen-data`` specs with
degenerate sizes, negative noise or non-finite values, and JSON files that
are not reports (or whose nested values are broken) must fail the same way.
"""

import contextlib
import io
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptcl.checkpoint import _write_npz, save_checkpoint
from promptcl.cli import main
from promptcl.model import build_model
from promptcl.prompts import add_class_prompts
from promptcl.vit import ModelConfig

TINY = ModelConfig(embed_dim=8, layers=2, heads=2, image_side=8, patch_side=4,
                   prompt_layer=1, adapter_start=2, adapter_dim=3)

RUN_CONF = """
dataset = {dataset}
out_dir = {out_dir}
embed_dim = 8
layers = 2
heads = 2
image_side = 8
patch_side = 4
prompt_layer = 1
adapter_start = 2
adapter_dim = 3
base_classes = 2
inc_classes = 2
epochs = 1
batch_size = 8
"""


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call.

    An exception escaping ``main`` is what the console script would print
    as a traceback, so it is left to fail the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def zip_header_offsets(path) -> list[int]:
    """Byte offsets of every local header, the central directory and its end record."""
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    offsets = []
    for info in infos:
        start = info.header_offset
        offsets.extend(range(start, start + 30 + len(info.filename) + len(info.extra)))
    offsets.extend(range(blob.index(b"PK\x01\x02"), len(blob)))
    return offsets


def damage(data, blob: bytes, hot: list[int]) -> bytes:
    if data.draw(st.booleans(), label="cut"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    pos = data.draw(st.one_of(st.integers(0, len(blob) - 1), st.sampled_from(hot)), label="byte")
    out = bytearray(blob)
    out[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    return bytes(out)


def check_damaged(path, blob: bytes, damaged: bytes, argv, intact_out: str) -> None:
    path.write_bytes(damaged)
    try:
        rc, out, err = run_cli(argv)
    finally:
        path.write_bytes(blob)
    if rc == 0:
        assert out == intact_out and err == ""
    else:
        assert rc == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.npz"
    state = build_model(TINY)
    add_class_prompts(state.pool, state.bank, [0, 1, 2], stage=1)
    save_checkpoint(path, state)
    argv = ["dump-prompts", "--checkpoint", str(path)]
    rc, intact_out, _ = run_cli(argv)
    assert rc == 0
    return path, path.read_bytes(), zip_header_offsets(path), argv, intact_out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc, _, _ = run_cli([
        "gen-data", "--out", str(root / "ds"), "--classes", "4", "--image-side", "8",
        "--stamp-side", "4", "--train", "16", "--test", "12", "--max-labels", "2",
        "--min-positive", "2", "--seed", "1",
    ])
    assert rc == 0
    conf = root / "run.conf"
    conf.write_text(RUN_CONF.format(dataset=root / "ds", out_dir=root / "runs"))
    argv = ["run", "--config", str(conf)]
    rc, intact_out, _ = run_cli(argv)
    assert rc == 0
    path = root / "ds" / "train" / "0003.sample"
    blob = path.read_bytes()
    labels = list(range(len(blob) - 4, len(blob)))  # one label byte per class
    return path, blob, labels, argv, intact_out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_gives_one_error_line(checkpoint, data):
    path, blob, hot, argv, intact_out = checkpoint
    check_damaged(path, blob, damage(data, blob, hot), argv, intact_out)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_sample_file_gives_one_error_line(dataset, data):
    path, blob, hot, argv, intact_out = dataset
    check_damaged(path, blob, damage(data, blob, hot), argv, intact_out)


@pytest.mark.parametrize("edit, needle", [
    (lambda meta: {k: v for k, v in meta.items() if k != "bank"}, "KeyError"),
    (lambda meta: {**meta, "config": {**meta["config"], "depth": 3}}, "TypeError"),
    (lambda meta: sorted(meta), "AttributeError"),
    (lambda meta: {**meta, "config": {**meta["config"], "heads": 0}}, "ModelConfig: heads must be >= 1"),
    (lambda meta: {**meta, "pool": meta["pool"] + meta["pool"][:1]}, "a class is listed twice"),
], ids=["missing-field", "unknown-config-field", "not-an-object", "rejected-config", "duplicate-class"])
def test_malformed_checkpoint_metadata_names_the_file(checkpoint, tmp_path, edit, needle):
    def edit_meta(blobs):
        meta = edit(json.loads(blobs["__meta__"].tobytes().decode("utf-8")))
        return {**blobs, "__meta__": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}

    path = edited_checkpoint(checkpoint[0], tmp_path, edit_meta)
    rc, out, err = run_cli(["dump-prompts", "--checkpoint", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: load_checkpoint: {path} has malformed metadata ({needle}")
    assert len(err.splitlines()) == 1


def edited_checkpoint(src, tmp_path, edit):
    """Copy of the checkpoint at ``src`` with ``edit`` applied to its name -> array map."""
    with np.load(src) as bundle:
        blobs = edit({k: bundle[k] for k in bundle.files})
    path = tmp_path / "edited.npz"
    _write_npz(path, blobs)
    return path


def assert_one_error_line(rc, out, err, needle):
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and needle in err, err


@pytest.mark.parametrize("edit", [
    lambda blobs: {**blobs, "prompt.0001": np.zeros(5)},
    lambda blobs: {**blobs, "head.0000.b": np.zeros((3, 3))},
    lambda blobs: {k: v for k, v in blobs.items() if k != "head.0002.w"},
    lambda blobs: {**blobs, "prompt.0007": np.zeros(TINY.embed_dim)},
    lambda blobs: {**blobs, "prompt.0001": np.full(TINY.embed_dim, np.nan)},
    lambda blobs: {**blobs, "head.0000.w": np.full(TINY.embed_dim, "a")},
], ids=["short-prompt", "matrix-head-bias", "missing-array", "extra-array", "nan-prompt", "string-head-weight"])
def test_checkpoint_arrays_that_disagree_with_metadata_name_the_file(checkpoint, tmp_path, edit):
    path = edited_checkpoint(checkpoint[0], tmp_path, edit)
    assert_one_error_line(*run_cli(["dump-prompts", "--checkpoint", str(path)]), f"load_checkpoint: {path} ")


@pytest.mark.parametrize("name, value, needle", [
    ("prompt.0000", np.array(list("abcdefgh"), dtype=object), "is not a readable container"),
    ("__meta__", np.frombuffer(b"\xff\xfe{}", dtype=np.uint8), "has malformed metadata"),
    ("__meta__", np.frombuffer(b"{not json", dtype=np.uint8), "has malformed metadata"),
], ids=["object-array", "non-utf8-metadata", "non-json-metadata"])
def test_checkpoint_content_numpy_or_json_cannot_read_names_the_file(checkpoint, tmp_path, name, value, needle):
    # np.savez pickles the object array, which _write_npz refuses to write.
    with np.load(checkpoint[0]) as bundle:
        blobs = {k: bundle[k] for k in bundle.files}
    path = tmp_path / "edited.npz"
    np.savez(path, **{**blobs, name: value})
    assert_one_error_line(*run_cli(["dump-prompts", "--checkpoint", str(path)]),
                          f"load_checkpoint: {path} {needle}")


@pytest.mark.parametrize("command", ["pretrain", "run"])
@pytest.mark.parametrize("line", [
    "heads = 0", "patch_side = 0", "patch_side = -4", "image_side = 0", "pretrain_epochs = 0", "pretrain_epochs = -2",
])
def test_degenerate_sizes_give_one_error_line(dataset, tmp_path, command, line):
    data = dataset[0].parents[1]  # <data>/train/0003.sample
    conf = tmp_path / "bad.conf"
    conf.write_text(
        RUN_CONF.format(dataset=data, out_dir=tmp_path / "runs") + f"pretrain_dataset = {data}\n{line}\n"
    )
    key, _, value = line.partition(" = ")
    assert_one_error_line(*run_cli([command, "--config", str(conf)]), f"{key} must be >= 1, got {value}")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flags, field", [
    (["--stamp-side", "0"], "stamp_side"),
    (["--train", "-5"], "n_train"),
    (["--cell-side", "0", "--shift-cells", "3"], "cell_side"),
    (["--noise-sigma", "nan"], "noise_sigma"),
    (["--shift-contrast", "nan"], "contrast"),
    (["--shift-offset", "inf"], "offset"),
    (["--noise-sigma", "-1"], "noise_sigma"),
], ids=["zero-stamp-side", "negative-train", "zero-cell-side", "nan-noise-sigma", "nan-shift-contrast", "inf-shift-offset",
        "negative-noise-sigma"])
def test_degenerate_dataset_specs_give_one_error_line(tmp_path, flags, field):
    out = tmp_path / "ds"
    rc, stdout, err = run_cli(["gen-data", "--out", str(out), "--classes", "4", "--image-side", "8", *flags])
    assert_one_error_line(rc, stdout, err, f" {field} must be ")
    assert not out.exists()


def real_report(dataset) -> dict:
    return json.loads((dataset[0].parents[2] / "runs" / "report.json").read_text())


@pytest.mark.parametrize("key", [
    "format", "method", "config", "dataset", "pretrained", "sessions", "accuracy_matrix", "last_map",
    "avg_map", "final_cf1", "final_of1", "forgetting", "freeze_audit", "rules", "hashes",
])
@pytest.mark.parametrize("change", ["drop", "retype"])
def test_report_with_a_bad_top_level_key_gives_one_error_line(dataset, tmp_path, key, change):
    payload = real_report(dataset)
    assert key in payload
    if change == "drop":
        del payload[key]
    else:
        payload[key] = [payload[key]] if not isinstance(payload[key], list) else {"": payload[key]}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    assert_one_error_line(*run_cli(["report", str(path)]), f"load_report: {path}")


def edit_json(change):
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


@pytest.mark.parametrize("edit", [
    edit_json(lambda p: p["sessions"][0].pop("map")),
    edit_json(lambda p: p.update(sessions=[])),
    edit_json(lambda p: p["sessions"].__setitem__(0, 3)),
    edit_json(lambda p: p["sessions"][-1].update(per_task_map="0.5")),
    edit_json(lambda p: p["dataset"].pop("spec_hash")),
    lambda text: text[:len(text) // 2],
], ids=["session-without-map", "no-sessions", "session-not-an-object", "per-task-map-a-string",
        "dataset-without-hash", "truncated"])
def test_report_with_bad_nested_values_gives_one_error_line(dataset, tmp_path, edit):
    path = tmp_path / "report.json"
    path.write_text(edit(json.dumps(real_report(dataset))))
    assert_one_error_line(*run_cli(["report", str(path)]), f"load_report: {path}")


@pytest.mark.parametrize("payload", [{}, [1, 2], "report", None, {"format": "promptcl-report-2"}])
def test_json_that_is_not_a_report_gives_one_error_line(tmp_path, payload):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    assert_one_error_line(*run_cli(["report", str(path)]), f"load_report: {path} is not a promptcl-report-1 file")

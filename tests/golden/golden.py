"""The golden output manifest: SHA-256 of every file a tiny fixed recipe writes.

The recipe runs the CLI in-process, in one directory, with relative
paths: a data set and a shifted pretraining set, a pretrained backbone,
one run of each method, a run without adapters, a run with a one-class
base task, the orthogonality penalty with the old prompts and the
adapters kept trainable, a run that pretrains inline, and ``dump-prompts``
and ``report`` on one run. The model is the default one, the published
desk run's. Every output file but ``timing.json`` (wall clock) is hashed.

The bytes depend on the BLAS kernels, so the manifest records the NumPy
and BLAS versions it was made with. Regenerate it only from a commit
whose outputs are known to be right:

    PYTHONPATH=src python tests/golden/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from promptcl.cli import main as cli_main

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

DATA_FLAGS = ["--classes", "6", "--stamp-side", "4", "--train", "200", "--test", "160",
              "--max-labels", "3", "--min-positive", "5", "--stamp-seed", "3"]
SHIFT_FLAGS = ["--shift-contrast", "1.5", "--shift-offset", "0.2", "--shift-cells", "7"]

BASE_CONF = """\
dataset         = data
base_classes    = 2
inc_classes     = 2
epochs          = 2
pretrain_epochs = 2
batch_size      = 16
lr              = 5e-3
seed            = 0
"""

# run directory -> extra config lines
RUNS = {
    "p2l_ca": "method = p2l_ca\npretrain_checkpoint = pretrain/backbone.npz\n",
    "p2l_ca_plus": ("method = p2l_ca_plus\npretrain_checkpoint = pretrain/backbone.npz\n"
                    "semantic_embeddings = emb.tsv\n"),
    "fine_tuning": "method = fine_tuning\npretrain_checkpoint = pretrain/backbone.npz\n",
    "no_adapters": "use_adapters = false\npretrain_checkpoint = pretrain/backbone.npz\n",
    "base_one": "base_classes = 1\ninc_classes = 5\npretrain_checkpoint = pretrain/backbone.npz\n",
    "ortho": ("ortho_weight = 0.1\nprompts_unfrozen = true\nca_unfrozen = true\n"
              "pretrain_checkpoint = pretrain/backbone.npz\n"),
    "inline_pretrain": "pretrain_dataset = pre\n",
}


def versions() -> dict:
    """The NumPy version and the BLAS build the bytes were computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_recipe(root) -> dict[str, str]:
    """Run the recipe in ``root`` (an empty directory); return relative path -> SHA-256."""
    root = Path(root)
    saved_cwd, saved_out = os.getcwd(), os.environ.pop("PROMPTCL_OUT_DIR", None)
    os.chdir(root)
    try:
        def cli(*argv, stdout=None):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli_main(list(argv))
            if rc != 0:
                raise RuntimeError(f"golden recipe: {' '.join(argv)} exited {rc}")
            if stdout:
                Path(stdout).write_text(out.getvalue(), encoding="utf-8")

        cli("gen-data", "--out", "data", "--seed", "1", *DATA_FLAGS)
        cli("gen-data", "--out", "pre", "--seed", "2", *DATA_FLAGS, *SHIFT_FLAGS)
        Path("emb.tsv").write_text("".join(
            f"{c}\t" + ",".join(f"{0.1 * (c + 1) * (j - 2.5):.4f}" for j in range(6)) + "\n"
            for c in range(6)), encoding="utf-8")
        Path("pretrain.conf").write_text(BASE_CONF + "pretrain_dataset = pre\n", encoding="utf-8")
        cli("pretrain", "--config", "pretrain.conf", "--out-dir", "pretrain")
        for name, extra in RUNS.items():
            Path(f"{name}.conf").write_text(BASE_CONF + extra, encoding="utf-8")
            cli("run", "--config", f"{name}.conf", "--out-dir", f"runs/{name}")
        cli("dump-prompts", "--checkpoint", "runs/p2l_ca/stage_03.npz", "--out", "prompts.csv")
        cli("report", "runs/p2l_ca/report.json", stdout="report.txt")
    finally:
        os.chdir(saved_cwd)
        if saved_out is not None:
            os.environ["PROMPTCL_OUT_DIR"] = saved_out
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "timing.json"
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="promptcl-golden-") as tmp:
        files = run_recipe(tmp)
    MANIFEST.write_text(json.dumps({"versions": versions(), "files": files}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(files)} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The fixed point, made mechanical: a tiny recipe's outputs match the checked-in manifest.

``tests/golden/manifest.json`` holds the SHA-256 of every file the recipe
in ``tests/golden/golden.py`` writes, computed from a commit whose outputs
were known to be right. A change that moves a single output byte fails here,
and so does one that makes the bytes depend on the BLAS thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import golden  # noqa: E402

CHILD = f"""
import json, sys
sys.path.insert(0, {str(GOLDEN)!r})
import golden
files = golden.run_recipe(sys.argv[1])
print(json.dumps({{"versions": golden.versions(), "files": files}}))
"""


def assert_matches_manifest(versions, files, where=""):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    assert versions == manifest["versions"], (
        f"the manifest was made with {manifest['versions']} but this is {versions}: "
        "its bytes depend on the BLAS kernels, so regenerate it from a commit known to be right"
    )
    assert sorted(files) == sorted(manifest["files"]), where
    changed = sorted(name for name, digest in files.items() if manifest["files"][name] != digest)
    assert not changed, f"{where}{len(changed)} of {len(files)} output files changed: {changed[:20]}"


def test_the_golden_recipe_writes_the_bytes_of_the_manifest(tmp_path):
    assert_matches_manifest(golden.versions(), golden.run_recipe(tmp_path))


@pytest.mark.parametrize("threads", [1, 4])
def test_the_golden_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, f"at {threads} BLAS threads the recipe failed:\n{proc.stderr[-2000:]}"
    run = json.loads(proc.stdout.splitlines()[-1])
    assert_matches_manifest(run["versions"], run["files"], where=f"at {threads} BLAS threads: ")

"""The fixed point, made mechanical: a tiny recipe's outputs match the checked-in manifest.

``tests/golden/manifest.json`` holds the SHA-256 of every file the recipe
in ``tests/golden/golden.py`` writes, computed from a commit whose outputs
were known to be right. A change that moves a single output byte fails here.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import golden  # noqa: E402


def test_the_golden_recipe_writes_the_bytes_of_the_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    assert golden.versions() == manifest["versions"], (
        f"the manifest was made with {manifest['versions']} but this is {golden.versions()}: "
        "its bytes depend on the BLAS kernels, so regenerate it from a commit known to be right"
    )
    files = golden.run_recipe(tmp_path)
    assert sorted(files) == sorted(manifest["files"])
    changed = sorted(name for name, digest in files.items() if manifest["files"][name] != digest)
    assert not changed, f"{len(changed)} of {len(files)} output files changed: {changed[:20]}"

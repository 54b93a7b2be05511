"""Time the steady training step of two source trees in alternating fresh processes.

    python tests/step_pairs.py BEFORE AFTER --stage pretraining --batch 64 --pairs 10

``BEFORE`` and ``AFTER`` are checkouts of the repository (each holds
``src/promptcl``). Each pair runs ``helpers.step_times`` once on each
tree, every run in a fresh Python process with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``) and ``NUMPY_MADVISE_HUGEPAGE=0``, so that a
run's heap and caches owe nothing to the other tree. ``BEFORE`` runs first
in odd pairs and ``AFTER`` in even ones, since the side that runs second
can gain from a host phase. Both trees are timed by this file's own
``helpers.py``, so only their ``src`` differs.

A run's figure is its fastest block of 5 steps, the least disturbed by
the host. The script prints each pair's two figures, then each side's
median and quartiles and the number of pairs in which ``AFTER`` was the
faster. This file is a script: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
CHILD = "import json, sys; from helpers import step_times; print(json.dumps(step_times(*json.loads(sys.argv[1]))))"


def stage_arg(text: str):
    """A stage of ``helpers.twelve_prompt_step``: 1, 3 or ``pretraining``."""
    return int(text) if text.isdigit() else text


def fastest_block(tree: Path, stage, batch: int, blocks: int) -> float:
    """The fastest block's mean step time, in ms, of one ``step_times`` run on ``tree`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(TESTS)]),
               OPENBLAS_NUM_THREADS="1", NUMPY_MADVISE_HUGEPAGE="0")
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps([stage, batch, blocks])], env=env,
                         capture_output=True, text=True, check=True).stdout
    return 1e3 * min(json.loads(out.splitlines()[-1]))


def summary(before: list[float], after: list[float]) -> list[str]:
    """The closing lines: each side's median and quartiles, and the pairs ``after`` was faster in."""
    lines = []
    for name, times in (("before", before), ("after", after)):
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        lines.append(f"{name}: median {median:.2f} ms, quartiles {q1:.2f}-{q3:.2f} ms (IQR {q3 - q1:.2f})")
    wins = sum(a < b for b, a in zip(before, after))
    change = np.median(after) / np.median(before) - 1.0
    lines.append(f"after faster in {wins} of {len(before)} pairs; median {100 * change:+.2f}%")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="the tree timed as the reference")
    parser.add_argument("after", type=Path, help="the tree timed against it")
    parser.add_argument("--stage", type=stage_arg, default="pretraining", help="1, 3 or pretraining")
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--blocks", type=int, default=15, help="blocks of 5 steps in each run")
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    for name, tree in trees.items():
        if not (tree / "src" / "promptcl").is_dir():
            parser.error(f"{name} tree {tree} holds no src/promptcl")
    times = {"before": [], "after": []}
    for pair in range(1, args.pairs + 1):
        order = ("before", "after") if pair % 2 else ("after", "before")
        for name in order:
            times[name].append(fastest_block(trees[name], args.stage, args.batch, args.blocks))
        print(f"pair {pair:2d} ({order[0]} first): before {times['before'][-1]:.2f} ms, "
              f"after {times['after'][-1]:.2f} ms", flush=True)
    print("\n".join(summary(times["before"], times["after"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast tests of the benchmark harness on tiny workloads (a few seconds each)."""

import json
import shutil
import subprocess
import sys

import pytest

import layertrace
import run

TINY_PRETRAIN_DATA = {"n_classes": 4, "n_train": 48, "n_test": 24, "min_positive": 4, "stamp_seed": 11}
TINY = {
    "tiny_pretrain": run.Workload(pretrain_epochs=1, pretrain_data=TINY_PRETRAIN_DATA),
    "tiny_run": run.Workload(pretrain_epochs=1, epochs=1, pretrain_data=TINY_PRETRAIN_DATA,
                             data={"n_classes": 8, "n_train": 64, "n_test": 48, "min_positive": 4}),
}
# What tiny_run reproduces at the reference seed.
TINY_PINNED = {"last_map": 0.3417316237537589, "avg_map": 0.3141017038265139,
               "stage1_map": 0.2864717838992689, "forgetting": 0.0}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(capsys, workload, seed=1, trace=0, pinned=TINY_PINNED, **kwargs):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, workloads=TINY, reference=("tiny_run", pinned), **kwargs)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_untraced_output_schema_and_metric_names(capsys):
    code, result, _ = invoke(capsys, "tiny_run")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPEATS
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert want == run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_layer_and_passes_identities(capsys, workload):
    code, result, _ = invoke(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert want == run.per_layer_units()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_seed_sets_the_inputs(capsys):
    def digests(seed):
        _, result, lines = invoke(capsys, "tiny_pretrain", seed=seed)
        assert result["correct"] is True
        return {line.split("digest ")[1] for line in lines if line.startswith("repeat")}

    first = digests(1)
    assert len(first) == 1
    assert digests(1) == first
    assert digests(2) != first


def test_wrong_expected_digest_counts_as_failure(capsys):
    code, result, _ = invoke(capsys, "tiny_pretrain", expect_digest="0" * 64)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.MIN_REPEATS


def test_reference_mismatch_fails_before_any_repeat(capsys):
    code, result, lines = invoke(capsys, "tiny_pretrain", pinned=dict(TINY_PINNED, avg_map=0.5))
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert any(line.startswith("reference FAILED") and "avg_map" in line for line in lines)
    assert not any(line.startswith("repeat") for line in lines)


def test_reference_figures_are_pinned():
    pinned = json.loads(run.REFERENCE_FILE.read_text(encoding="utf-8"))
    assert run.REFERENCE_WORKLOAD in run.WORKLOADS
    assert all(isinstance(pinned[key], float) for key in TINY_PINNED)


def test_missing_binding_fails_the_trace_check():
    rec = {"layers": layertrace.Tracer().metrics(), "stray_blocks": 0, "steps": 3, "stages": 1}
    errors = run.trace_errors(rec, "run")
    assert any("tensor.backward_calls" in e for e in errors)
    assert any("span vit.block1.fwd recorded no calls" in e for e in errors)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_p2l", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench-work").exists()

"""Fresh-process benchmark for promptcl.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark copies promptcl's sources
and its own child script into a work directory whose path has the same
length in every checkout, generates the workload's datasets with
promptcl's own generator, and writes a config file. It then makes an
untimed reference run (``desk_p2l`` at seed 0) and checks its figures
against ``reference.json``. Then it runs repeats of the workload, each in
a fresh child process (``child.py``), one at a time, with BLAS pinned to
one thread, NumPy's huge-page requests off and no glibc allocator tuning.
It starts repeats while the last one's duration still fits in
``--seconds`` (at least ``MIN_REPEATS``).

``--trace 0`` reports the end-to-end metrics: the median over the
repeats. ``--trace 1`` alternates untraced and traced repeats and reports
per-layer metrics from the traced ones (see ``layertrace.py``), the
tracing overhead, and checks the trace's call-count identities.

Every repeat's outputs are checked (see ``child.py``), and all repeats of
one invocation, traced or not, must produce the same output file bytes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every repeat passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
# The lengths of the paths a child allocates shift glibc's heap layout, and
# with it the child's page faults and run time (see README.md). So children
# run in a work directory whose absolute path has this many characters,
# from copies of the sources inside it, and see only paths relative to it.
WORK_PATH_LEN = 200
# Removed from the children's environment so that timings describe the
# program as users run it.
TUNING_PREFIXES = ("MALLOC_", "GLIBC_TUNABLES", "LD_PRELOAD", "PYTHONMALLOC")
# Set in every child: one BLAS thread, and no transparent-huge-page requests
# from NumPy, which succeed or not with the host's free memory at the moment
# and so moved run_s by 17% between back-to-back runs (see README.md).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMPY_MADVISE_HUGEPAGE": "0"}

# Every repeat yields these. between_stages_s and minor_faults spread too
# much across seeds to carry a regression bound (minor_faults follows the
# heap layout, see README.md), so they are reported as per-layer metrics.
REPEAT_METRICS = {
    "setup_s": "s",
    "run_s": "s",
    "train_img_per_s": "1/s",
    "peak_rss_mb": "MB",
    "between_stages_s": "s",
    "minor_faults": "count",
}
END_TO_END = {k: REPEAT_METRICS[k] for k in ("setup_s", "run_s", "train_img_per_s", "peak_rss_mb")}
PLAIN_LAYER_METRICS = ("between_stages_s", "minor_faults")  # from the untraced repeats


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in layertrace.span_names():
        units[f"{name}_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update({name: REPEAT_METRICS[name] for name in PLAIN_LAYER_METRICS})
    units.update({
        "tensor.tape_entries": "count",
        "tensor.tape_entries_per_step": "count",
        "checkpoint.bytes": "bytes",
        "trace.unattributed_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


# Spans that only one kind of workload calls; every other span must be
# called, and take time, on every workload.
PRETRAIN_ONLY = {"training.simulate_pretraining"}
RUN_ONLY = {
    "checkpoint.load", "checkpoint.params_digest", "training.run_benchmark",
    "training.train_stage", "training.evaluate_session", "model.predict_probs",
    "metrics.per_class_ap", "metrics.cf1_of1", "reporting.write_report",
    "adapters.adapter_forward",
}

# The shifted pretraining domain of the published desk recipe, and the
# generator seeds of both datasets.
PRETRAIN_DATA = {"stamp_seed": 11,
                 "shift": {"contrast": 1.6, "offset": -0.1, "cell_perm_seed": 5, "cell_side": 4}}
PRETRAIN_SEED = 2
DATA_SEED = 1

# The reference run: this workload at this seed, from a donor backbone
# pretrained at the same seed, must reproduce the figures pinned in
# reference.json.
REFERENCE_WORKLOAD = "desk_p2l"
REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload. ``data`` None makes it a pretraining workload.

    The datasets are fixed, so every seed does the same amount of work;
    ``--seed`` sets the run's seed (weight init and batch order).
    """

    pretrain_epochs: int
    epochs: int = 1
    data: dict | None = None      # SyntheticSpec fields of the incremental dataset
    pretrain_data: dict = field(default_factory=lambda: dict(PRETRAIN_DATA))

    @property
    def kind(self) -> str:
        return "pretrain" if self.data is None else "run"


# Scaled from the published recipe (30 pretraining epochs, 40 per stage) so
# that one repeat takes a few seconds; per-step work is unchanged.
WORKLOADS = {
    "desk_pretrain": Workload(pretrain_epochs=4),
    "desk_p2l": Workload(pretrain_epochs=4, epochs=3, data={}),
}


def make_spec(fields: dict):
    from promptcl import ShiftParams, SyntheticSpec

    fields = dict(fields)
    if "shift" in fields:
        fields["shift"] = ShiftParams(**fields["shift"])
    return SyntheticSpec(**fields)


def prepare(workload: Workload, seed: int, work: Path, sub: str, donor: str) -> str:
    """Write the datasets and a config into ``work/sub``; return the config's path.

    Every path is relative to ``work``, where the children run; ``donor`` is
    the backbone checkpoint of a run workload.
    """
    from promptcl import generate_dataset

    (work / sub).mkdir(parents=True, exist_ok=True)
    generate_dataset(make_spec(workload.pretrain_data), PRETRAIN_SEED,
                     out_dir=str(work / sub / "pretrain_data"))
    lines = {
        "pretrain_dataset": os.path.join(sub, "pretrain_data"),
        "seed": seed,
        "lr": 0.001,
        "batch_size": 64,
        "base_classes": 4,
        "inc_classes": 4,
        "pretrain_epochs": workload.pretrain_epochs,
        "epochs": workload.epochs,
    }
    if workload.kind == "run":
        generate_dataset(make_spec(workload.data), DATA_SEED, out_dir=str(work / sub / "data"))
        lines["dataset"] = os.path.join(sub, "data")
        lines["pretrain_checkpoint"] = donor
    conf = os.path.join(sub, "run.conf")
    (work / conf).write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    return conf


def work_dir() -> Path:
    """This invocation's work directory: WORK_PATH_LEN characters where the checkout allows."""
    base = ROOT.resolve() / ".perfbench-work"
    name = f"{os.getpid():08d}"
    return base / name.ljust(WORK_PATH_LEN - len(str(base)) - 1, "_")


def stage_program(work: Path) -> None:
    """Copy promptcl's sources and the child's modules into ``work`` and byte-compile them."""
    shutil.copytree(ROOT / "src" / "promptcl", work / "src" / "promptcl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("child.py", "layertrace.py"):
        shutil.copy2(HERE / name, work / name)
    if not compileall.compile_dir(str(work), quiet=1):
        raise RuntimeError(f"byte-compiling the sources in {work} failed")


def child_env(work: Path) -> tuple[dict, list[str]]:
    """The children's environment, and the names removed from ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(TUNING_PREFIXES)}
    removed = sorted(set(os.environ) - set(env))
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = "src"
    env["PWD"] = str(work)
    return env, removed


def run_child(mode: str, work: Path, conf: str, name: str, env: dict, traced: bool,
              verify: bool) -> dict:
    """One child process in ``work``, writing to ``work/name``; errors go into the record."""
    (work / name).mkdir()
    result_path = os.path.join(name, "result.json")
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    cmd = [sys.executable, "child.py", mode, conf, name, result_path,
           str(int(traced)), str(int(verify)), repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec = {"errors": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    else:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            rec = {"errors": [f"child exited with {proc.returncode}: {tail[0]}"]}
        else:
            rec = json.loads((work / result_path).read_text(encoding="utf-8"))
    rec.update(traced=traced, wall_s=time.perf_counter() - t0,
               load_before=load_before, load_after=os.getloadavg())
    return rec


def trace_errors(rec: dict, kind: str) -> list[str]:
    """Call-count identities and non-zero checks of one traced repeat."""
    layers = rec["layers"]
    errors = []
    if rec["stray_blocks"]:
        errors.append(f"{rec['stray_blocks']} sab_forward calls outside encoder_forward")
    encoder_calls = layers["vit.encoder_forward_calls"]
    for k in range(1, layertrace.LAYERS + 1):
        if layers[f"vit.block{k}.fwd_calls"] != encoder_calls:
            errors.append(f"block {k} ran {layers[f'vit.block{k}.fwd_calls']} times "
                          f"for {encoder_calls} encoder_forward calls")
    for name in ("tensor.backward_calls", "training.adam_step_calls"):
        if layers[name] != rec["steps"]:
            errors.append(f"{name} = {layers[name]}, but the run took {rec['steps']} steps")
    if layers["checkpoint.save_calls"] != rec["stages"]:
        errors.append(f"checkpoint.save_calls = {layers['checkpoint.save_calls']} "
                      f"for {rec['stages']} stages")
    skip = RUN_ONLY if kind == "pretrain" else PRETRAIN_ONLY
    for name in layertrace.span_names():
        if name not in skip and not (layers[f"{name}_calls"] > 0 and layers[f"{name}_s"] > 0):
            errors.append(f"span {name} recorded no calls or no time")
    for name in ("tensor.tape_entries", "checkpoint.bytes"):
        if not layers[name] > 0:
            errors.append(f"{name} is zero")
    return errors


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def repeat_metrics(rec: dict) -> dict[str, float]:
    return {
        "setup_s": rec["setup_s"],
        "run_s": rec["run_s"],
        "train_img_per_s": rec["train_images"] / rec["stage_s"],
        "between_stages_s": rec["run_s"] - rec["stage_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "minor_faults": rec["minor_faults"],
    }


def provenance(removed_env: list[str]) -> dict:
    import numpy as np

    src = ROOT / "src" / "promptcl"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "removed_env": removed_env,
    }


def git_commit() -> str:
    """The checkout's HEAD commit; "unknown" outside a git clone."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None, expect_digest=None, reference=None) -> int:
    """Run one benchmark invocation.

    ``workloads``, ``expect_digest`` and ``reference`` (a workload name and
    its pinned figures) are for tests.
    """
    args = parse_args(argv)
    workloads = WORKLOADS if workloads is None else workloads
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "promptcl" / "__init__.py").is_file():
        print(f"error: no promptcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads[args.workload]
    if reference is None:
        reference = (REFERENCE_WORKLOAD, json.loads(REFERENCE_FILE.read_text(encoding="utf-8")))
    ref_name, pinned = reference
    work = work_dir()
    env, removed = child_env(work)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print("provenance " + json.dumps(provenance(removed), sort_keys=True))
    if len(str(work)) != WORK_PATH_LEN:
        print(f"note: the checkout path is too long for a work path of {WORK_PATH_LEN} characters; "
              "page faults may then differ from other checkouts")

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stage_program(work)
        records = reference_run(workloads[ref_name], pinned, work, env)
        if not records:
            records = measure(workload, args, work, env, expect_digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return summarize(records, args.trace)


def reference_figures(report: dict) -> dict[str, float]:
    return {
        "last_map": report["last_map"],
        "avg_map": report["avg_map"],
        "stage1_map": report["sessions"][0]["map"],
        "forgetting": report["forgetting"],
    }


def reference_run(ref: Workload, pinned: dict, work: Path, env: dict) -> list[dict]:
    """Untimed: pretrain the donor, run ``ref`` on it, compare with ``pinned``.

    Returns no records when it passes, else the failed child's record.
    """
    conf = prepare(ref, REFERENCE_SEED, work, "reference", "reference/donor/backbone.npz")
    for mode, name in (("pretrain", "reference/donor"), ("run", "reference/out")):
        rec = run_child(mode, work, conf, name, env, traced=False, verify=True)
        if rec["errors"]:
            rec["errors"].insert(0, f"reference run: the {mode} child failed")
            break
    else:
        report = json.loads((work / "reference" / "out" / "report.json").read_text(encoding="utf-8"))
        got = reference_figures(report)
        print(f"reference {json.dumps(got, sort_keys=True)}")
        for key in sorted(got):
            if not abs(got[key] - pinned[key]) <= REFERENCE_TOLERANCE:
                rec["errors"].append(f"reference run: {key} {got[key]!r} != pinned {pinned[key]!r}")
    if rec["errors"]:
        print("reference FAILED: " + "; ".join(rec["errors"]))
        return [rec]
    return []


def measure(workload: Workload, args, work: Path, env: dict, expect_digest) -> list[dict]:
    conf = prepare(workload, args.seed, work, "", "donor/backbone.npz")
    if workload.kind == "run":
        donor = run_child("pretrain", work, conf, "donor", env, traced=False, verify=True)
        if donor["errors"]:
            donor["errors"].insert(0, "preparing the donor backbone failed")
            return [donor]

    records = []
    start = time.perf_counter()
    minimum = MIN_REPEATS + (1 if args.trace else 0)
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= minimum and elapsed + records[-1]["wall_s"] > args.seconds:
            break
        traced = bool(args.trace) and len(records) % 2 == 1
        name = f"repeat{len(records) + 1:02d}"
        # The oracles run until one repeat passes them; later repeats must
        # match that repeat's output bytes.
        verify = expect_digest is None
        rec = run_child(workload.kind, work, conf, name, env, traced=traced, verify=verify)
        shutil.rmtree(work / name, ignore_errors=True)
        if not rec["errors"]:
            if verify:
                expect_digest = rec["digest"]
            if rec["digest"] != expect_digest:
                rec["errors"].append(f"output digest {rec['digest'][:16]} differs from {expect_digest[:16]}")
            if traced:
                rec["errors"].extend(trace_errors(rec, workload.kind))
        records.append(rec)
        print(describe(len(records), rec), flush=True)
    return records


def describe(i: int, rec: dict) -> str:
    head = f"repeat {i:2d} {'traced ' if rec['traced'] else 'plain  '}"
    load = f"load {rec['load_before'][0]:.2f}->{rec['load_after'][0]:.2f}"
    if rec["errors"]:
        return f"{head} FAILED {load}: " + "; ".join(rec["errors"])
    return (f"{head} ok wall {rec['wall_s']:.3f} s setup {rec['setup_s']:.3f} s run {rec['run_s']:.3f} s "
            f"cpu {rec['cpu_user_s']:.2f}+{rec['cpu_sys_s']:.2f} s "
            f"rss {rec['peak_rss_mb']:.1f} MB faults {rec['minor_faults']} {load} "
            f"digest {rec['digest'][:16]}")


def summarize(records: list[dict], trace: int) -> int:
    ok = [r for r in records if not r["errors"]]
    failed = len(records) - len(ok)
    print(f"failed_ratio {failed}/{len(records)}")
    plain = [r for r in ok if not r.get("traced")]
    traced = [r for r in ok if r.get("traced")]
    rows = [repeat_metrics(r) for r in plain]
    metrics = {}
    if trace == 0 and plain:
        for name, unit in REPEAT_METRICS.items():
            median = report_line(name, [row[name] for row in rows], unit)
            if name in END_TO_END:
                metrics[name] = {"value": median, "unit": unit}
    elif trace == 1 and plain and traced:
        for name, unit in per_layer_units().items():
            if name == "trace.overhead_ratio":
                values = [statistics.median(r["run_s"] for r in traced)
                          / statistics.median(r["run_s"] for r in plain)]
            elif name in PLAIN_LAYER_METRICS:
                values = [row[name] for row in rows]
            else:
                values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": report_line(name, values, unit), "unit": unit}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def report_line(name: str, values: list[float], unit: str) -> float:
    q1, median, q3 = quartiles(sorted(values))
    print(f"{name:38s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    return median


if __name__ == "__main__":
    sys.exit(main())

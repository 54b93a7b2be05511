"""Run reports: deterministic JSON payload, CSV table, text rendering.

Wall-clock numbers live in a separate timing file so that two runs of
the same config produce byte-identical ``report.json`` files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

REPORT_FORMAT = "promptcl-report-1"
# every other top-level key of report.json -> type of its value
REPORT_FIELDS = {
    "method": str, "config": dict, "dataset": dict, "pretrained": bool, "sessions": list,
    "accuracy_matrix": list, "last_map": float, "avg_map": float, "final_cf1": float,
    "final_of1": float, "forgetting": float, "freeze_audit": list, "rules": dict, "hashes": dict,
}


@dataclass
class Report:
    payload: dict
    timing: dict = field(default_factory=dict)

    @staticmethod
    def config_hash(config_dict: dict) -> str:
        canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"


def write_report(report: Report, out_dir) -> dict[str, str]:
    """Write report.json, sessions.csv and timing.json; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "sessions": os.path.join(out_dir, "sessions.csv"),
        "timing": os.path.join(out_dir, "timing.json"),
    }
    with open(paths["report"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())
    sessions = report.payload["sessions"]
    n_tasks = len(sessions[-1]["per_task_map"]) if sessions else 0
    with open(paths["sessions"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["session", "new_classes", "trainable_params", "map", "cf1", "of1"]
            + [f"task_{i + 1:02d}_map" for i in range(n_tasks)]
        )
        for s in sessions:
            row = [
                s["session"],
                " ".join(str(c) for c in s["new_class_ids"]),
                s["trainable_params"],
                f"{s['map']:.6f}",
                f"{s['cf1']:.6f}",
                f"{s['of1']:.6f}",
            ]
            row += [f"{v:.6f}" for v in s["per_task_map"]]
            row += [""] * (n_tasks - len(s["per_task_map"]))
            writer.writerow(row)
    with open(paths["timing"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.timing, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths


def load_report(path) -> dict:
    """Read a report.json; raises ValueError naming ``path`` unless it holds a report that renders."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as err:  # bad JSON or bad UTF-8
            raise ValueError(f"load_report: {path} is not JSON ({err})") from None
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise ValueError(f"load_report: {path} is not a {REPORT_FORMAT} file")
    for key, kind in REPORT_FIELDS.items():
        if not isinstance(payload.get(key), kind):
            raise ValueError(f"load_report: {path}: {key!r} is missing or not a {kind.__name__}")
    try:
        render_report(payload)  # reads every nested value the table shows
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise ValueError(f"load_report: {path}: malformed report ({type(err).__name__}: {err})") from None
    return payload


def render_report(payload: dict) -> str:
    """Human-oriented fixed-width view of a report payload."""
    lines = []
    lines.append(f"method        {payload['method']}")
    lines.append(f"dataset hash  {payload['dataset']['spec_hash'][:16]}")
    lines.append(
        f"protocol      base {payload['config']['base_classes']} / "
        f"inc {payload['config']['inc_classes']} / seed {payload['config']['seed']}"
    )
    lines.append("")
    n_tasks = len(payload["sessions"][-1]["per_task_map"])
    head = f"{'sess':>4} {'params':>8} {'mAP':>8} {'CF1':>8} {'OF1':>8}  " + " ".join(
        f"{'T' + str(i + 1):>7}" for i in range(n_tasks)
    )
    lines.append(head)
    lines.append("-" * len(head))
    for s in payload["sessions"]:
        cells = " ".join(f"{v:7.4f}" for v in s["per_task_map"])
        lines.append(
            f"{s['session']:>4} {s['trainable_params']:>8} {s['map']:8.4f} "
            f"{s['cf1']:8.4f} {s['of1']:8.4f}  {cells}"
        )
    lines.append("-" * len(head))
    lines.append(
        f"last mAP {payload['last_map']:.4f}   avg mAP {payload['avg_map']:.4f}   "
        f"forgetting {payload['forgetting']:.4f}"
    )
    return "\n".join(lines) + "\n"

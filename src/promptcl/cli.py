"""Command line entry points.

Subcommands: gen-data, pretrain, run, report, dump-prompts. The output
directory can always be forced with the PROMPTCL_OUT_DIR environment
variable, which takes precedence over flags and config values.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import fields
from typing import get_type_hints

from .checkpoint import load_checkpoint, save_checkpoint
from .config import CONVERTERS, build_run_config, from_values, parse_config_file, print_config
from .datagen import ShiftParams, SyntheticSpec, generate_dataset, load_dataset
from .model import build_model
from .protocol import METHODS
from .reporting import load_report, render_report, write_report
from .seeds import replacing
from .training import run_benchmark, simulate_pretraining


def _resolve_out_dir(flag_value, config_value=None):
    env = os.environ.get("PROMPTCL_OUT_DIR")
    if env:
        return env
    if flag_value:
        return flag_value
    if config_value:
        return config_value
    return "runs"


def _cmd_gen_data(args) -> int:
    values = vars(args)
    # shift only when a pixel transform is asked for: --cell-side alone changes nothing
    plain = ShiftParams()
    shifted = any(values[k] != getattr(plain, k) for k in ("contrast", "offset", "cell_perm_seed"))
    spec = from_values(SyntheticSpec, values, shift=from_values(ShiftParams, values) if shifted else None)
    out = _resolve_out_dir(args.out)
    ds = generate_dataset(spec, args.seed, out_dir=out)
    print(f"wrote {ds.train_images.shape[0]} train / {ds.test_images.shape[0]} test samples "
          f"({ds.n_classes} classes) to {out}")
    return 0


def _cmd_pretrain(args) -> int:
    values = parse_config_file(args.config)
    if not values["pretrain_dataset"]:
        raise ValueError("pretrain: config must set pretrain_dataset")
    cfg = build_run_config(values)
    dataset = load_dataset(values["pretrain_dataset"])
    state = build_model(cfg.model, use_adapters=False)
    path = args.out
    if not path:  # the out dir is made before training, so that one that cannot be made fails at once
        out_dir = _resolve_out_dir(args.out_dir, values["out_dir"])
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "backbone.npz")
    stats = simulate_pretraining(state, dataset, cfg)
    save_checkpoint(path, state)
    print(f"pretrained backbone for {stats['steps']} steps, saved to {path}")
    return 0


def _cmd_run(args) -> int:
    if args.print_config:
        print(print_config(), end="")
        return 0
    if not args.config:
        raise ValueError("run: --config is required (or use --print-config)")
    values = parse_config_file(args.config)
    if args.method:
        values["method"] = args.method
    cfg = build_run_config(values)
    if not values["dataset"]:
        raise ValueError("run: config must set dataset")
    dataset = load_dataset(values["dataset"])

    donor = None
    pretrain_ds = None
    if values["pretrain_checkpoint"]:
        donor = load_checkpoint(values["pretrain_checkpoint"])
    elif values["pretrain_dataset"]:
        pretrain_ds = load_dataset(values["pretrain_dataset"])

    out_dir = _resolve_out_dir(args.out_dir, values["out_dir"])
    report = run_benchmark(cfg, dataset, pretrain=pretrain_ds, out_dir=out_dir, backbone_from=donor)
    paths = write_report(report, out_dir)
    print(render_report(report.payload), end="")
    print(f"report written to {paths['report']}")
    return 0


def _cmd_report(args) -> int:
    payload = load_report(args.report)
    print(render_report(payload), end="")
    return 0


def _cmd_dump_prompts(args) -> int:
    state = load_checkpoint(args.checkpoint)
    rows = list(state.pool.entries)
    if not rows:
        raise ValueError(f"dump-prompts: {args.checkpoint} holds no prompts")
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    d = state.config.embed_dim
    writer.writerow(["class_id", "stage_added", "frozen"] + [f"v{i}" for i in range(d)])
    for e in rows:
        writer.writerow([e.class_id, e.stage_added, int(e.frozen)]
                        + [f"{v!r}" for v in e.vector.data.tolist()])
    if not args.out:
        sys.stdout.write(table.getvalue())
        return 0
    with replacing(args.out) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(table.getvalue())
    print(f"wrote {len(rows)} prompt vectors to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptcl",
        description="Continual multi-label image classification with class prompts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    for cls in (SyntheticSpec, ShiftParams):
        hints = get_type_hints(cls)
        for f in fields(cls):
            flag = f.metadata.get("flag", f.name.replace("_", "-"))
            if convert := CONVERTERS.get(hints[f.name]):  # the nested shift is spelled by ShiftParams' flags
                g.add_argument(f"--{flag}", dest=f.name, metavar=flag.replace("-", "_").upper(),
                               type=convert, default=f.default, help=f.metadata.get("help"))
    g.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="train and freeze a backbone once")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="checkpoint path (default <out_dir>/backbone.npz)")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_pretrain)

    r = sub.add_parser("run", help="run the incremental benchmark")
    r.add_argument("--config", default=None)
    r.add_argument("--method", default=None, choices=METHODS)
    r.add_argument("--out-dir", default=None)
    r.add_argument("--print-config", action="store_true",
                   help="print the config schema with defaults and exit")
    r.set_defaults(func=_cmd_run)

    t = sub.add_parser("report", help="render a report.json as a table")
    t.add_argument("report")
    t.set_defaults(func=_cmd_report)

    d = sub.add_parser("dump-prompts", help="export prompt vectors from a checkpoint")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--out", default=None, help="CSV path (default: stdout)")
    d.set_defaults(func=_cmd_dump_prompts)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

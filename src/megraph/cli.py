"""Command-line entry points.

Commands: train, evaluate, loso, ablate, gradcheck, synth-data, config show,
graph dump, model inspect. Every command accepts --out (directory for
artifacts) and all but graph dump, whose layout is fixed, accept --config
(JSON) and --seed (overrides the config seed). Exit code
0 on success, 1 on a failed check, 2 on invalid input or a violated runtime
invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

from .autodiff import ShapeError
from .checks import DEFAULT_SEEDS, battery_passed, format_battery, run_battery
from .config import ExperimentConfig, dumps, encode, load_config
from .files import atomic_write_text
from .graph import (
    BRIDGES,
    COMPONENT_INDICES,
    NODE_INDICES,
    spatial_adjacency,
    template_edges,
)
from .landmarks import save_samples, synthesize_dataset
from .model import ActionRelationNet, InvariantError
from .training import (
    DivergenceError,
    LeakageError,
    format_ablation,
    format_report,
    run_ablation,
    evaluate_checkpoint,
    run_loso,
    run_training,
)

USAGE_ERRORS = (
    ValueError,
    KeyError,
    OSError,
    json.JSONDecodeError,
    ShapeError,
)
RUNTIME_ERRORS = (
    InvariantError,
    LeakageError,
    DivergenceError,
    FloatingPointError,
)


def _add_common(parser: argparse.ArgumentParser, configured: bool = True) -> None:
    if configured:
        parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
        parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", metavar="DIR", help="directory for run artifacts")


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_run(run, summary, args) -> int:
    print(summary(run(_resolve_config(args), args)), end="")
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


# command -> help, run(config, args) -> report, summary formatter, extra flags
RUN_COMMANDS = {
    "train": ("train one model on the whole dataset",
              lambda cfg, a: run_training(cfg, out_dir=a.out), format_report, {}),
    "evaluate": ("score a checkpoint on a dataset",
                 lambda cfg, a: evaluate_checkpoint(cfg, a.checkpoint, out_dir=a.out),
                 format_report,
                 {"--checkpoint": {"metavar": "PATH", "required": True}}),
    "loso": ("leave-one-subject-out cross-validation",
             lambda cfg, a: run_loso(cfg, out_dir=a.out), format_report, {}),
    "ablate": ("module and loss ablation tables",
               lambda cfg, a: run_ablation(cfg, out_dir=a.out), format_ablation, {}),
}


def _print_and_save(text: str, out_dir, name: str) -> None:
    """Print ``text``; with ``--out``, also write it atomically to out_dir/name."""
    print(text)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / name, text + "\n")


def _cmd_gradcheck(args) -> int:
    base = _resolve_config(args).seed  # the config's seed is the first battery seed
    seeds = tuple(base + i for i in range(len(DEFAULT_SEEDS)))
    t0 = time.perf_counter()
    entries = run_battery(seeds=seeds)
    text = format_battery(entries)
    text += f"\nelapsed: {time.perf_counter() - t0:.1f}s"
    _print_and_save(text, args.out, "gradcheck.txt")
    return 0 if battery_passed(entries) else 1


def _cmd_synth_data(args) -> int:
    cfg = _resolve_config(args)
    spec = cfg.synth
    if spec is None:
        raise ValueError("config has no synth spec to generate from")
    seed = args.seed if args.seed is not None else spec.seed
    samples = synthesize_dataset(**encode(replace(spec, seed=seed)))
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dataset.jsonl"
    save_samples(samples, path)
    print(
        f"wrote {len(samples)} samples "
        f"({spec.n_subjects} subjects, {spec.n_classes} classes) to {path}"
    )
    return 0


def _cmd_graph_dump(args) -> int:
    payload = {
        "components": {name: list(idx) for name, idx in COMPONENT_INDICES.items()},
        "bridges": [list(e) for e in BRIDGES],
        "n_nodes": len(NODE_INDICES),
        "node_order": list(NODE_INDICES),
        "edges": [list(e) for e in template_edges()],
        "degrees": spatial_adjacency().sum(axis=1).astype(int).tolist(),
    }
    _print_and_save(json.dumps(payload, indent=2), args.out, "graph.json")
    return 0


def _cmd_model_inspect(args) -> int:
    cfg = _resolve_config(args)
    model = ActionRelationNet(cfg.model, seed=cfg.seed)
    payload = {
        "config": encode(cfg.model),
        "parameters": {
            name: list(t.shape) for name, t in model.params.items()
        },
        "n_parameters": model.params.n_values(),
    }
    _print_and_save(json.dumps(payload, indent=2), args.out, "model.json")
    return 0


def _cmd_config_show(args) -> int:
    print(dumps(_resolve_config(args)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megraph",
        description="Graph representation learning on facial-landmark keyframes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, run, summary, extra) in RUN_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for flag, options in extra.items():
            p.add_argument(flag, **options)
        p.set_defaults(fn=partial(_cmd_run, run, summary))

    p = sub.add_parser("gradcheck", help="run the gradient-check battery")
    _add_common(p)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    _add_common(p)
    p.set_defaults(fn=_cmd_synth_data)

    # groups of one command each: group, its help, command, its help, handler
    for group, group_help, name, help_text, fn in (
        ("config", "configuration utilities",
         "show", "print the resolved config", _cmd_config_show),
        ("graph", "landmark graph utilities",
         "dump", "dump the node selection and edges", _cmd_graph_dump),
        ("model", "model utilities",
         "inspect", "list parameters and shapes", _cmd_model_inspect),
    ):
        commands = sub.add_parser(group, help=group_help).add_subparsers(
            dest="subcommand", required=True
        )
        p = commands.add_parser(name, help=help_text)
        _add_common(p, configured=fn is not _cmd_graph_dump)
        p.set_defaults(fn=fn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RUNTIME_ERRORS + USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

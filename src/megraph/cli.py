"""Command-line entry points.

Commands: train, evaluate, loso, ablate, gradcheck, synth-data,
graph dump, model inspect. Every command accepts --config (JSON), --seed
(overrides the config seed), and --out (directory for artifacts). Exit code
0 on success, 1 on a failed check, 2 on invalid input or a violated runtime
invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", metavar="DIR", help="directory for run artifacts")


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_train(args) -> int:
    run = run_training(_resolve_config(args), out_dir=args.out)
    print(format_report(run), end="")
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    run = evaluate_checkpoint(
        _resolve_config(args), args.checkpoint, out_dir=args.out
    )
    print(format_report(run), end="")
    return 0


def _cmd_loso(args) -> int:
    run = run_loso(_resolve_config(args), out_dir=args.out)
    print(format_report(run), end="")
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    report = run_ablation(_resolve_config(args), out_dir=args.out)
    print(format_ablation(report), end="")
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    base = args.seed if args.seed is not None else DEFAULT_SEEDS[0]
    seeds = tuple(base + i for i in range(len(DEFAULT_SEEDS)))
    t0 = time.perf_counter()
    entries = run_battery(seeds=seeds)
    text = format_battery(entries)
    text += f"\nelapsed: {time.perf_counter() - t0:.1f}s"
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "gradcheck.txt", text + "\n")
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
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "graph.json", text + "\n")
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
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out / "model.json", text + "\n")
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

    p = sub.add_parser("train", help="train one model on the whole dataset")
    _add_common(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    _add_common(p)
    p.add_argument("--checkpoint", metavar="PATH", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("loso", help="leave-one-subject-out cross-validation")
    _add_common(p)
    p.set_defaults(fn=_cmd_loso)

    p = sub.add_parser("ablate", help="module and loss ablation tables")
    _add_common(p)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="run the gradient-check battery")
    _add_common(p)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    _add_common(p)
    p.set_defaults(fn=_cmd_synth_data)

    p = sub.add_parser("config", help="configuration utilities")
    config_sub = p.add_subparsers(dest="subcommand", required=True)
    q = config_sub.add_parser("show", help="print the resolved config")
    _add_common(q)
    q.set_defaults(fn=_cmd_config_show)

    p = sub.add_parser("graph", help="landmark graph utilities")
    graph_sub = p.add_subparsers(dest="subcommand", required=True)
    q = graph_sub.add_parser("dump", help="dump the node selection and edges")
    _add_common(q)
    q.set_defaults(fn=_cmd_graph_dump)

    p = sub.add_parser("model", help="model utilities")
    model_sub = p.add_subparsers(dest="subcommand", required=True)
    q = model_sub.add_parser("inspect", help="list parameters and shapes")
    _add_common(q)
    q.set_defaults(fn=_cmd_model_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

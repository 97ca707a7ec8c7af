"""Training loop, leave-one-subject-out protocol, ablations, reporting.

Determinism contract: given one config (seed included), repeated runs on one
machine produce bit-identical reports and checkpoints. All randomness flows
from seed sequences derived from the config seed; fold order is the sorted
subject order; wall_time is the only nondeterministic report field and is
excluded from the canonical report form.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import AugmentConfig, ExperimentConfig, save_config
from .graph import StGraph, build_graph, stack_graphs
from .landmarks import (
    LandmarkSample,
    crop_jitter,
    load_samples,
    magnify,
    synthesize_dataset,
)
from .losses import WeightCenterTable, for_variant, total_loss
from .metrics import accuracy, f1_report
from .model import ActionRelationNet, InvariantError
from .params import read_checkpoint, sgd_step, write_checkpoint

CURVE_COLUMNS = ("step", "ce", "feature_center", "weight_center", "balance", "total")


class LeakageError(RuntimeError):
    """A held-out sample (or its subject) leaked into a training set."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


def frames_digest(sample: LandmarkSample) -> str:
    return hashlib.sha256(sample.frames.tobytes()).hexdigest()


def prepare_samples(config: ExperimentConfig) -> list[LandmarkSample]:
    """Load the configured dataset or synthesize one; validate labels."""
    if config.dataset is not None:
        samples = load_samples(config.dataset)
    else:
        spec = config.synth
        samples = synthesize_dataset(
            n_subjects=spec.n_subjects,
            samples_per_subject=spec.samples_per_subject,
            n_classes=spec.n_classes,
            noise_sigma=spec.noise_sigma,
            seed=spec.seed,
        )
    if not samples:
        raise ValueError("dataset is empty")
    max_label = max(s.label for s in samples)
    if max_label >= config.model.n_classes:
        raise ValueError(
            f"dataset has label {max_label} but the model is configured "
            f"for {config.model.n_classes} classes"
        )
    return samples


@dataclass
class Fold:
    subject: str
    train: list[LandmarkSample]
    test: list[LandmarkSample]


def loso_split(samples: list[LandmarkSample]) -> list[Fold]:
    """One fold per subject, ordered by subject id."""
    subjects = sorted({s.subject for s in samples})
    if len(subjects) < 2:
        raise ValueError("leave-one-subject-out needs at least 2 subjects")
    return [
        Fold(
            subject=subj,
            train=[s for s in samples if s.subject != subj],
            test=[s for s in samples if s.subject == subj],
        )
        for subj in subjects
    ]


def check_no_leakage(train: list[LandmarkSample], test: list[LandmarkSample]) -> None:
    """Reject subject overlap or any shared landmark tensor."""
    train_subjects = {s.subject for s in train}
    for s in test:
        if s.subject in train_subjects:
            raise LeakageError(
                f"held-out subject '{s.subject}' has samples in the training set"
            )
    train_hashes = {frames_digest(s) for s in train}
    for s in test:
        if frames_digest(s) in train_hashes:
            raise LeakageError(
                f"a held-out sample of subject '{s.subject}' appears in the "
                "training set"
            )


def augmented(
    train: list[LandmarkSample],
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> list[LandmarkSample]:
    """Originals plus cfg.copies jittered duplicates of each train sample."""
    out = list(train)
    for s in train:
        for _ in range(cfg.copies):
            out.append(crop_jitter(s, rng, cfg.max_scale, cfg.max_shift))
    return out


def release_cycles() -> None:
    """Collect cyclic garbage before a run builds its tapes.

    Tapes are acyclic and batched, so a run allocates too few objects to
    trigger CPython's full collections; cycles the caller left behind (for
    example modules dropped by a re-import) would otherwise stay resident
    across many runs and raise peak memory with every one.
    """
    gc.collect()


def sample_graph(sample: LandmarkSample, magnification: float, selection) -> StGraph:
    """Preprocessing pipeline: magnify motion, then build the graph."""
    return build_graph(magnify(sample, magnification), selection=selection)


def _batch_slices(n: int, batch_size: int, merge_tail: bool) -> list[slice]:
    """Contiguous batch slices; a trailing singleton is folded into the
    previous batch when batch statistics need at least two samples."""
    slices = [slice(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]
    if merge_tail and len(slices) > 1 and slices[-1].stop - slices[-1].start == 1:
        last = slices.pop()
        prev = slices.pop()
        slices.append(slice(prev.start, last.stop))
    return slices


@dataclass
class TrainOutcome:
    model: ActionRelationNet
    table: WeightCenterTable | None
    curves: list[dict]
    epochs_run: int


def train_fold(
    train_samples: list[LandmarkSample],
    config: ExperimentConfig,
    rng: np.random.Generator,
    model_rng: np.random.Generator | int,
    context: str = "training",
) -> TrainOutcome:
    """Run epochs of mini-batch descent on one training set.

    Losses the configured variant cannot produce inputs for are dropped
    before training starts. Stops early once the epoch-mean loss plateaus.
    """
    if not train_samples:
        raise ValueError(f"{context}: training set is empty")
    model = ActionRelationNet(config.model, seed=model_rng)
    eff = for_variant(config.loss_weights, config.model.variant)
    needs_pairs = eff.feature_center != 0.0
    if needs_pairs and len(train_samples) < 2:
        raise ValueError(
            f"{context}: the feature-center loss needs at least 2 samples"
        )
    table = None
    if eff.weight_center != 0.0:
        table = WeightCenterTable(
            n_classes=config.model.n_classes,
            n_rows=config.model.n_action_rows,
            rate=config.center_rate,
            mode=config.center_mode,
        )

    stacked = stack_graphs(
        [sample_graph(s, config.magnification, model.selection) for s in train_samples]
    )
    labels = np.array([s.label for s in train_samples])
    opt = config.optimizer
    n = len(train_samples)

    curves: list[dict] = []
    step = 0
    best = np.inf
    stall = 0
    epochs_run = 0
    for epoch in range(opt.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for sl in _batch_slices(n, opt.batch_size, merge_tail=needs_pairs):
            idx = order[sl]
            try:
                batch = replace(stacked, node_features=stacked.node_features[idx])
                result = model.forward(batch)
                breakdown = total_loss(
                    result, labels[idx], eff, table=table, update_table=True
                )
                ad.backward(breakdown.total)
                sgd_step(model.params, lr=opt.lr, momentum=opt.momentum)
            except FloatingPointError as exc:
                raise DivergenceError(
                    f"{context}: diverged at epoch {epoch + 1}, step {step + 1}: {exc}"
                ) from exc
            step += 1
            row = breakdown.as_dict()
            row["step"] = step
            curves.append(row)
            epoch_total += breakdown.total_value * len(idx)
        epochs_run = epoch + 1
        epoch_mean = epoch_total / n
        if best - epoch_mean > opt.plateau_tol:
            best = epoch_mean
            stall = 0
        else:
            stall += 1
            if stall >= opt.plateau_patience:
                break
    return TrainOutcome(model=model, table=table, curves=curves, epochs_run=epochs_run)


@dataclass
class FoldReport:
    subject: str
    y_true: list[int]
    y_pred: list[int]
    logits: list[list[float]]
    accuracy: float
    epochs_run: int

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "y_true": self.y_true,
            "y_pred": self.y_pred,
            "logits": self.logits,
            "accuracy": self.accuracy,
            "epochs_run": self.epochs_run,
        }


# Evaluation runs the model on stacked chunks of at most this many samples,
# so memory stays flat however large the evaluation set is.
EVAL_CHUNK = 64


def evaluate(
    model: ActionRelationNet,
    samples: list[LandmarkSample],
    magnification: float,
):
    """Argmax predictions without augmentation or any state mutation."""
    if not samples:
        raise ValueError("evaluation set is empty")
    y_true: list[int] = []
    y_pred: list[int] = []
    logit_rows: list[list[float]] = []
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start : start + EVAL_CHUNK]
        batch = stack_graphs(
            [sample_graph(s, magnification, model.selection) for s in chunk]
        )
        for s, row in zip(chunk, model.forward(batch).logits.data):
            y_true.append(int(s.label))
            y_pred.append(int(np.argmax(row)))
            logit_rows.append([float(v) for v in row])
    return y_true, y_pred, logit_rows


@dataclass
class RunReport:
    config: dict
    folds: list[FoldReport]
    fold_subjects: list[str]
    pooled_accuracy: float
    f1_macro: float
    f1_micro: float
    f1_per_class: list[float]
    f1_undefined_classes: list[int]
    wall_time: float

    @property
    def f1_selected(self) -> float:
        avg = self.config.get("f1_average", "macro")
        return self.f1_micro if avg == "micro" else self.f1_macro

    def to_dict(self) -> dict:
        d = self.canonical()
        d["wall_time"] = self.wall_time
        return d

    def canonical(self) -> dict:
        """Report content minus wall time; bit-stable across repeated runs."""
        return {
            "config": self.config,
            "folds": [f.to_dict() for f in self.folds],
            "fold_subjects": self.fold_subjects,
            "pooled_accuracy": self.pooled_accuracy,
            "f1_macro": self.f1_macro,
            "f1_micro": self.f1_micro,
            "f1_per_class": self.f1_per_class,
            "f1_undefined_classes": self.f1_undefined_classes,
        }


def _pool_metrics(config: ExperimentConfig, fold_reports: list[FoldReport]):
    pooled_true = [y for r in fold_reports for y in r.y_true]
    pooled_pred = [y for r in fold_reports for y in r.y_pred]
    pooled_acc = accuracy(pooled_true, pooled_pred)
    weighted = (
        sum(r.accuracy * len(r.y_true) for r in fold_reports) / len(pooled_true)
    )
    if abs(pooled_acc - weighted) > 1e-12:
        raise InvariantError(
            "pooled accuracy does not equal the sample-weighted fold mean"
        )
    f1 = f1_report(pooled_true, pooled_pred, config.model.n_classes)
    return pooled_true, pooled_acc, f1


def run_loso(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Train and score one model per held-out subject; pool the predictions."""
    t0 = time.perf_counter()
    release_cycles()
    samples = prepare_samples(config)
    folds = loso_split(samples)
    children = np.random.SeedSequence(config.seed).spawn(len(folds))

    fold_reports: list[FoldReport] = []
    all_curves: list[tuple[str, dict]] = []
    checkpoints: dict[str, dict] = {}
    for fold, ss in zip(folds, children):
        data_ss, model_ss = ss.spawn(2)
        rng = np.random.default_rng(data_ss)
        train_set = augmented(fold.train, config.augment, rng)
        check_no_leakage(train_set, fold.test)
        outcome = train_fold(
            train_set,
            config,
            rng,
            np.random.default_rng(model_ss),
            context=f"fold {fold.subject}",
        )
        y_true, y_pred, logits = evaluate(
            outcome.model, fold.test, config.magnification
        )
        fold_reports.append(
            FoldReport(
                subject=fold.subject,
                y_true=y_true,
                y_pred=y_pred,
                logits=logits,
                accuracy=accuracy(y_true, y_pred),
                epochs_run=outcome.epochs_run,
            )
        )
        all_curves.extend((fold.subject, row) for row in outcome.curves)
        checkpoints[f"fold_{fold.subject}"] = outcome.model.params.state_dict()

    pooled_true, pooled_acc, f1 = _pool_metrics(config, fold_reports)
    if len(pooled_true) != len(samples):
        raise InvariantError(
            "held-out samples do not partition the dataset exactly once"
        )
    run = RunReport(
        config=config.to_dict(),
        folds=fold_reports,
        fold_subjects=[f.subject for f in folds],
        pooled_accuracy=pooled_acc,
        f1_macro=f1.macro,
        f1_micro=f1.micro,
        f1_per_class=f1.per_class,
        f1_undefined_classes=f1.undefined_classes,
        wall_time=time.perf_counter() - t0,
    )
    if out_dir is not None:
        write_run_dir(out_dir, config, run, all_curves, checkpoints)
    return run


def run_training(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Train one model on the whole dataset; score it on the same data.

    The reported accuracy is resubstitution accuracy, useful for capacity
    checks, not an estimate of generalization.
    """
    t0 = time.perf_counter()
    release_cycles()
    samples = prepare_samples(config)
    master = np.random.SeedSequence(config.seed)
    data_ss, model_ss = master.spawn(2)
    rng = np.random.default_rng(data_ss)
    train_set = augmented(samples, config.augment, rng)
    outcome = train_fold(
        train_set, config, rng, np.random.default_rng(model_ss)
    )
    y_true, y_pred, logits = evaluate(outcome.model, samples, config.magnification)
    report = FoldReport(
        subject="(all)",
        y_true=y_true,
        y_pred=y_pred,
        logits=logits,
        accuracy=accuracy(y_true, y_pred),
        epochs_run=outcome.epochs_run,
    )
    f1 = f1_report(y_true, y_pred, config.model.n_classes)
    run = RunReport(
        config=config.to_dict(),
        folds=[report],
        fold_subjects=["(all)"],
        pooled_accuracy=report.accuracy,
        f1_macro=f1.macro,
        f1_micro=f1.micro,
        f1_per_class=f1.per_class,
        f1_undefined_classes=f1.undefined_classes,
        wall_time=time.perf_counter() - t0,
    )
    if out_dir is not None:
        curves = [("(all)", row) for row in outcome.curves]
        write_run_dir(
            out_dir,
            config,
            run,
            curves,
            {"final": outcome.model.params.state_dict()},
        )
    return run


def evaluate_checkpoint(
    config: ExperimentConfig, checkpoint_path, out_dir=None
) -> RunReport:
    """Score a saved checkpoint on the configured dataset."""
    t0 = time.perf_counter()
    release_cycles()
    samples = prepare_samples(config)
    model = ActionRelationNet(config.model, seed=0)
    model.params.load_state_dict(read_checkpoint(checkpoint_path))
    y_true, y_pred, logits = evaluate(model, samples, config.magnification)
    f1 = f1_report(y_true, y_pred, config.model.n_classes)
    report = FoldReport(
        subject="(eval)",
        y_true=y_true,
        y_pred=y_pred,
        logits=logits,
        accuracy=accuracy(y_true, y_pred),
        epochs_run=0,
    )
    run = RunReport(
        config=config.to_dict(),
        folds=[report],
        fold_subjects=["(eval)"],
        pooled_accuracy=report.accuracy,
        f1_macro=f1.macro,
        f1_micro=f1.micro,
        f1_per_class=f1.per_class,
        f1_undefined_classes=f1.undefined_classes,
        wall_time=time.perf_counter() - t0,
    )
    if out_dir is not None:
        write_run_dir(out_dir, config, run, [], {})
    return run


# -- run directory ----------------------------------------------------------


def format_report(run: RunReport) -> str:
    """Human-readable summary table."""
    cfg = run.config
    lines = [
        "run summary",
        f"  variant: {cfg['model']['variant']}    seed: {cfg['seed']}",
        f"  folds: {len(run.folds)}    samples: "
        f"{sum(len(f.y_true) for f in run.folds)}",
        "",
        f"  {'fold':<10} {'n':>4} {'acc':>8} {'epochs':>7}",
    ]
    for f in run.folds:
        lines.append(
            f"  {f.subject:<10} {len(f.y_true):>4} {f.accuracy:>8.4f} "
            f"{f.epochs_run:>7}"
        )
    avg = cfg.get("f1_average", "macro")
    lines += [
        "",
        f"  pooled accuracy: {run.pooled_accuracy:.4f}",
        f"  f1 ({avg}): {run.f1_selected:.4f}",
        f"  f1 per class: {', '.join(f'{v:.4f}' for v in run.f1_per_class)}",
    ]
    if run.f1_undefined_classes:
        lines.append(
            "  note: classes "
            f"{run.f1_undefined_classes} never appeared (f1 set to 0)"
        )
    return "\n".join(lines) + "\n"


def write_curves(path, curves: list[tuple[str, dict]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("fold",) + CURVE_COLUMNS)
        for subject, row in curves:
            writer.writerow([subject] + [repr(row[c]) for c in CURVE_COLUMNS])


def write_run_dir(out_dir, config, run, curves, checkpoints) -> None:
    """Lay out config.json, folds/, report.json, report.txt, curves.csv,
    checkpoints/ under one directory."""
    out = Path(out_dir)
    (out / "folds").mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(exist_ok=True)
    save_config(config, out / "config.json")
    for fr in run.folds:
        name = fr.subject.strip("()") or "fold"
        (out / "folds" / f"{name}.json").write_text(
            json.dumps(fr.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    (out / "report.json").write_text(
        json.dumps(run.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    (out / "report.txt").write_text(format_report(run))
    write_curves(out / "curves.csv", curves)
    for name, state in checkpoints.items():
        write_checkpoint(state, out / "checkpoints" / f"{name}.json")


# -- ablations ----------------------------------------------------------------

MODULE_ROWS = ("backbone", "actions", "full")
LOSS_ROWS = ("full", "no_feature_center", "no_weight_center", "no_balance")


@dataclass
class AblationReport:
    config: dict
    modules: list[dict]
    losses: list[dict]
    fold_subjects: list[str]
    wall_time: float

    def to_dict(self) -> dict:
        d = self.canonical()
        d["wall_time"] = self.wall_time
        return d

    def canonical(self) -> dict:
        return {
            "config": self.config,
            "modules": self.modules,
            "losses": self.losses,
            "fold_subjects": self.fold_subjects,
        }


def _loss_row_weights(name: str, base):
    if name == "full":
        return base
    field = name.removeprefix("no_")
    return replace(base, **{field: 0.0})


def run_ablation(config: ExperimentConfig, out_dir=None) -> AblationReport:
    """Module rows (backbone, actions, full) and loss-removal rows, all on
    identical splits and seeds."""
    t0 = time.perf_counter()
    subjects_ref: list[str] | None = None

    def one_row(cfg: ExperimentConfig) -> RunReport:
        nonlocal subjects_ref
        run = run_loso(cfg)
        if subjects_ref is None:
            subjects_ref = run.fold_subjects
        elif run.fold_subjects != subjects_ref:
            raise InvariantError("ablation rows saw different LOSO splits")
        return run

    modules = []
    for variant in MODULE_ROWS:
        cfg = replace(config, model=replace(config.model, variant=variant))
        run = one_row(cfg)
        modules.append(
            {
                "name": variant,
                "variant": variant,
                "accuracy": run.pooled_accuracy,
                "f1_macro": run.f1_macro,
                "f1_micro": run.f1_micro,
            }
        )

    losses = []
    full_cfg = replace(config, model=replace(config.model, variant="full"))
    for name in LOSS_ROWS:
        weights = _loss_row_weights(name, full_cfg.loss_weights)
        run = one_row(replace(full_cfg, loss_weights=weights))
        losses.append(
            {
                "name": name,
                "loss_weights": weights.to_dict(),
                "accuracy": run.pooled_accuracy,
                "f1_macro": run.f1_macro,
                "f1_micro": run.f1_micro,
            }
        )

    report = AblationReport(
        config=config.to_dict(),
        modules=modules,
        losses=losses,
        fold_subjects=subjects_ref or [],
        wall_time=time.perf_counter() - t0,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_config(config, out / "config.json")
        (out / "ablation.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        (out / "ablation.txt").write_text(format_ablation(report))
    return report


def format_ablation(report: AblationReport) -> str:
    lines = ["module ablation", f"  {'row':<20} {'acc':>8} {'f1':>8}"]
    for row in report.modules:
        lines.append(
            f"  {row['name']:<20} {row['accuracy']:>8.4f} {row['f1_macro']:>8.4f}"
        )
    lines += ["", "loss ablation", f"  {'row':<20} {'acc':>8} {'f1':>8}"]
    for row in report.losses:
        lines.append(
            f"  {row['name']:<20} {row['accuracy']:>8.4f} {row['f1_macro']:>8.4f}"
        )
    return "\n".join(lines) + "\n"

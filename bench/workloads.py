"""The benchmark's workloads: set-up, one timed operation, and its check.

Each workload draws every input from the seed it is given: the seed becomes
``SynthSpec.seed`` and ``ExperimentConfig.seed`` (or the gradient battery's
seed base), so the program sees only the inputs generated from it.

``call`` is the timed operation and touches nothing but the program;
``check`` runs untimed afterwards, validates the result and cleans up.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

SCALES = ("full", "toy")


@dataclass
class Outcome:
    """Result of checking one timed call.

    ``attempted`` counts operations: one LOSO or evaluate call, or one
    gradient-battery entry. ``key`` names the inputs: calls with the same
    key must give the same ``digest``.
    """

    attempted: int
    failed: int
    key: str | None = None
    digest: str | None = None
    accuracy: float | None = None
    model_seeds: int = 0  # whole-model gradient checks the call asked for
    problems: list[str] = field(default_factory=list)


def report_digest(run) -> str:
    """sha256 of a RunReport's canonical form."""
    text = json.dumps(run.canonical(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def steps_per_epoch(n: int, batch_size: int, merge_tail: bool) -> int:
    """Mini-batches per epoch; a trailing singleton batch is merged into
    the one before it when batch statistics need two samples."""
    steps = -(-n // batch_size)
    if merge_tail and steps > 1 and n % batch_size == 1:
        steps -= 1
    return steps


class Workload:
    name = ""
    why = ""
    # Per-layer functions that must run at least once per traced run, and
    # those that must never run.
    expect_called: frozenset[str] = frozenset()
    expect_zero: frozenset[str] = frozenset()

    def sizes(self, scale: str) -> dict:
        raise NotImplementedError

    def setup(self, mg, seed: int, work_dir: Path, scale: str):
        raise NotImplementedError

    def call(self, state, repeat: int):
        raise NotImplementedError

    def check(self, state, repeat: int, result) -> Outcome:
        raise NotImplementedError


# -- LOSO training ------------------------------------------------------------

LOSO_SIZES = {
    "full": {"n_subjects": 10, "samples_per_subject": 6, "n_classes": 5,
             "channels": 16, "batch_size": 16, "epochs": 1},
    "toy": {"n_subjects": 3, "samples_per_subject": 5, "n_classes": 5,
            "channels": 4, "batch_size": 4, "epochs": 1},
}

LOSO_ALWAYS = frozenset({
    "autodiff.backward", "model.forward", "model.backbone", "model.classify",
    "losses.total_loss", "losses.classification_loss", "params.sgd_step",
    "graph.build_graph", "landmarks.magnify", "landmarks.synthesize_dataset",
    "training.train_fold", "training.evaluate", "training.check_no_leakage",
})
LOSO_NEVER = frozenset({
    "params.read_checkpoint", "landmarks.load_samples", "checks.kink_margin",
    "autodiff.grad_check",
})
FULL_ONLY = frozenset({
    "model.decompose", "model.relate", "losses.feature_center_loss",
    "losses.weight_center_loss", "losses.balance_loss",
})
ARTIFACTS = frozenset({"params.write_checkpoint", "training.write_run_dir"})


@dataclass
class LosoState:
    mg: object
    config: object
    n_samples: int
    work_dir: Path | None
    sizes: dict


class Loso(Workload):
    def __init__(self, name: str, variant: str, write_artifacts: bool, why: str):
        self.name = name
        self.variant = variant
        self.write_artifacts = write_artifacts
        self.why = why
        called = set(LOSO_ALWAYS)
        zero = set(LOSO_NEVER)
        (called if variant == "full" else zero).update(FULL_ONLY)
        (called if write_artifacts else zero).update(ARTIFACTS)
        self.expect_called = frozenset(called)
        self.expect_zero = frozenset(zero)

    def sizes(self, scale: str) -> dict:
        return {"variant": self.variant, **LOSO_SIZES[scale]}

    def setup(self, mg, seed, work_dir, scale):
        sz = LOSO_SIZES[scale]
        synth = mg.SynthSpec(
            n_subjects=sz["n_subjects"],
            samples_per_subject=sz["samples_per_subject"],
            n_classes=sz["n_classes"],
            seed=seed,
        )
        config = mg.ExperimentConfig(
            synth=synth,
            model=mg.ModelConfig(
                variant=self.variant,
                channels=sz["channels"],
                n_classes=sz["n_classes"],
            ),
            optimizer=mg.OptimizerConfig(
                epochs=sz["epochs"],
                batch_size=sz["batch_size"],
                plateau_patience=10**9,
            ),
            seed=seed,
        )
        samples = mg.synthesize_dataset(
            n_subjects=synth.n_subjects,
            samples_per_subject=synth.samples_per_subject,
            n_classes=synth.n_classes,
            noise_sigma=synth.noise_sigma,
            seed=synth.seed,
        )
        run_dir = work_dir / self.name if self.write_artifacts else None
        return LosoState(mg, config, len(samples), run_dir, self.sizes(scale))

    def _out_dir(self, state, repeat):
        return None if state.work_dir is None else state.work_dir / f"run{repeat}"

    def call(self, state, repeat):
        return state.mg.training.run_loso(state.config, self._out_dir(state, repeat))

    def check(self, state, repeat, run) -> Outcome:
        sz = state.sizes
        problems = []
        if len(run.folds) != sz["n_subjects"]:
            problems.append(f"{len(run.folds)} folds, expected {sz['n_subjects']}")
        held_out = sum(len(f.y_true) for f in run.folds)
        if held_out != state.n_samples:
            problems.append(f"{held_out} held-out samples, expected {state.n_samples}")
        if any(f.epochs_run != sz["epochs"] for f in run.folds):
            problems.append("a fold stopped before the fixed epoch count")
        out = self._out_dir(state, repeat)
        if out is not None:
            problems += self._check_artifacts(state, run, out)
            shutil.rmtree(out, ignore_errors=True)
        return Outcome(
            attempted=1,
            failed=int(bool(problems)),
            key="report",
            digest=report_digest(run),
            accuracy=run.pooled_accuracy,
            problems=problems,
        )

    def _check_artifacts(self, state, run, out: Path) -> list[str]:
        sz = state.sizes
        n_train = state.n_samples - sz["samples_per_subject"]
        merge = state.config.loss_weights.feature_center != 0.0
        steps = sz["epochs"] * steps_per_epoch(n_train, sz["batch_size"], merge)
        problems = []
        rows = (out / "curves.csv").read_text().splitlines()
        if len(rows) != 1 + steps * len(run.folds):
            problems.append(f"curves.csv has {len(rows) - 1} rows, expected "
                            f"{steps * len(run.folds)}")
        n_ckpt = len(list((out / "checkpoints").glob("fold_*.json")))
        if n_ckpt != len(run.folds):
            problems.append(f"{n_ckpt} fold checkpoints, expected {len(run.folds)}")
        written = json.loads((out / "report.json").read_text())
        written.pop("wall_time", None)
        if written != json.loads(json.dumps(run.canonical())):
            problems.append("report.json differs from the returned report")
        return problems


# -- gradient battery -----------------------------------------------------------

BATTERY_SIZES = {"full": {"bases": 3}, "toy": {"bases": 2}}


@dataclass
class BatteryState:
    mg: object
    bases: list[int]


class Gradcheck(Workload):
    name = "gradcheck"
    why = ("thousands of tiny tape re-evaluations with one backward per check "
           "and no SGD: per-op construction overhead and the gradient oracle")
    expect_called = frozenset({
        "checks.kink_margin", "autodiff.grad_check", "autodiff.backward",
        "model.forward", "losses.total_loss", "graph.build_graph",
        "landmarks.synthesize_dataset",
    })
    expect_zero = frozenset({
        "params.sgd_step", "params.write_checkpoint", "params.read_checkpoint",
        "landmarks.load_samples", "training.train_fold", "training.evaluate",
        "training.write_run_dir",
    })

    def sizes(self, scale):
        return dict(BATTERY_SIZES[scale])

    def setup(self, mg, seed, work_dir, scale):
        # Repeats cycle through consecutive seed bases; runs with different
        # seeds never share a base.
        n = BATTERY_SIZES[scale]["bases"]
        return BatteryState(mg, [seed * n + i for i in range(n)])

    def _base(self, state, repeat):
        return state.bases[repeat % len(state.bases)]

    def call(self, state, repeat):
        return state.mg.checks.run_battery(seeds=(self._base(state, repeat),))

    def check(self, state, repeat, entries) -> Outcome:
        failed = [e for e in entries if not e.passed]
        record = [
            (e.name, e.seed, repr(e.result.max_rel_err), e.passed, e.result.n_coords)
            for e in entries
        ]
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        return Outcome(
            attempted=len(entries),
            failed=len(failed),
            key=f"battery@{self._base(state, repeat)}",
            digest=digest,
            model_seeds=1,  # one seed, so one whole-model check

            problems=[f"{e.name} (seed {e.seed}): {e.result}" for e in failed[:5]],
        )


# -- bulk evaluation ------------------------------------------------------------

EVAL_SIZES = {
    "full": {"n_subjects": 50, "samples_per_subject": 20, "n_classes": 5,
             "train_epochs": 2},
    "toy": {"n_subjects": 5, "samples_per_subject": 5, "n_classes": 5,
            "train_epochs": 1},
}


@dataclass
class EvalState:
    mg: object
    config: object
    checkpoint: Path
    n_samples: int


class EvaluateLarge(Workload):
    name = "evaluate_large"
    why = ("scores a fixed checkpoint on a large JSONL file: load, read "
           "checkpoint, per-sample graph and forward, no backward")
    expect_called = frozenset({
        "landmarks.load_samples", "params.read_checkpoint", "landmarks.magnify",
        "graph.build_graph", "model.forward", "model.backbone", "model.decompose",
        "model.relate", "model.classify", "training.evaluate",
    })
    expect_zero = frozenset({
        "autodiff.backward", "params.sgd_step", "losses.total_loss",
        "params.write_checkpoint", "training.train_fold", "checks.kink_margin",
        "autodiff.grad_check", "landmarks.synthesize_dataset",
    })

    def sizes(self, scale):
        return dict(EVAL_SIZES[scale])

    def setup(self, mg, seed, work_dir, scale):
        sz = EVAL_SIZES[scale]
        samples = mg.synthesize_dataset(
            n_subjects=sz["n_subjects"],
            samples_per_subject=sz["samples_per_subject"],
            n_classes=sz["n_classes"],
            seed=seed,
        )
        work_dir.mkdir(parents=True, exist_ok=True)
        path = work_dir / "evaluate.jsonl"
        mg.save_samples(samples, path)
        model = mg.ModelConfig(n_classes=sz["n_classes"])
        train = mg.ExperimentConfig(
            synth=mg.SynthSpec(n_classes=sz["n_classes"], seed=seed),
            model=model,
            optimizer=mg.OptimizerConfig(epochs=sz["train_epochs"]),
            seed=seed,
        )
        mg.run_training(train, out_dir=work_dir / "train")
        config = mg.ExperimentConfig(
            dataset=str(path), synth=None, model=model, seed=seed
        )
        checkpoint = work_dir / "train" / "checkpoints" / "final.json"
        return EvalState(mg, config, checkpoint, len(samples))

    def call(self, state, repeat):
        return state.mg.training.evaluate_checkpoint(state.config, state.checkpoint)

    def check(self, state, repeat, run) -> Outcome:
        n = sum(len(f.y_true) for f in run.folds)
        problems = [] if n == state.n_samples else [
            f"scored {n} samples, expected {state.n_samples}"
        ]
        return Outcome(
            attempted=1,
            failed=int(bool(problems)),
            key="report",
            digest=report_digest(run),
            accuracy=run.pooled_accuracy,
            problems=problems,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Loso(
            "loso_full",
            "full",
            write_artifacts=True,
            why=("LOSO training hot path: every stage, all four loss terms, "
                 "checkpoints and curves.csv written"),
        ),
        Loso(
            "loso_backbone",
            "backbone",
            write_artifacts=False,
            why=("same LOSO with the backbone variant and no artifacts: "
                 "decompose, relate and auxiliary losses bypassed"),
        ),
        Gradcheck(),
        EvaluateLarge(),
    )
}

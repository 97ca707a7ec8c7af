"""Training loop, leave-one-subject-out protocol, ablations, reporting.

Determinism contract: given one config (seed included), repeated runs on one
machine produce bit-identical reports and checkpoints. All randomness flows
from seed sequences derived from the config seed; fold order is the sorted
subject order; wall_time is the only nondeterministic report field and is
excluded from the canonical report form. A run preprocesses its
:class:`~megraph.landmarks.SampleSet` once (:func:`sample_graph`) into one
plain (N, 3, 31, 2) array of node features; a LOSO fold is a held-out mask
over the samples and their rows, and only its jittered training copies are
preprocessed and hashed for the leakage check per fold.

:func:`run_loso` trains, and :func:`evaluate_checkpoint` scores, one share of folds or
of a file's lines per usable CPU, the first in the caller and each other in a forked
child; serially on one CPU, without ``os.fork`` or beside other threads. Reports are
bit-identical for any worker count. The caller's ``ru_maxrss`` (the benchmark's
``peak_rss_mb``) and per-layer counts cover only its own share.
"""

from __future__ import annotations

import csv
import ctypes
import gc
import os
import pickle
import select
import signal
import sys
import threading
import time
import traceback
import warnings
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig, dumps, encode, save_config
from .files import atomic_write, atomic_write_text
from .graph import DegenerateFrameError, build_graph
from .landmarks import (
    SampleSet,
    crop_jitter,
    finite_samples,
    load_samples,
    magnify,
    sample_lines,
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


def prepare_samples(config: ExperimentConfig, lines=None) -> SampleSet:
    """Load the dataset (given ``lines``, only those) or synthesize one; validate labels."""
    if config.dataset is not None:
        samples = load_samples(config.dataset, lines)
    else:
        samples = synthesize_dataset(**encode(config.synth))
    if not len(samples):
        raise ValueError("dataset is empty")
    max_label = int(samples.labels.max())
    if max_label >= config.model.n_classes:
        raise ValueError(
            f"dataset has label {max_label} but the model is configured "
            f"for {config.model.n_classes} classes"
        )
    return samples


def loso_split(samples: SampleSet) -> list[tuple[str, np.ndarray]]:
    """One (subject, held-out mask) pair per subject, ordered by subject id."""
    subjects = sorted(set(samples.subjects.tolist()))
    if len(subjects) < 2:
        raise ValueError("leave-one-subject-out needs at least 2 subjects")
    return [(subject, samples.subjects == subject) for subject in subjects]


def _found_in(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` that occur in ``pool``, by binary search of the
    sorted pool; ``np.isin`` runs ``np.unique`` on both sides, which costs
    several times more at fold sizes."""
    pool = np.sort(pool)
    at = np.searchsorted(pool, values).clip(max=len(pool) - 1)
    return pool[at] == values if len(pool) else np.zeros(len(values), dtype=bool)


def check_no_leakage(train: SampleSet, test: SampleSet) -> None:
    """Reject subject overlap, then any shared landmark tensor."""
    for column, message in (
        ("subjects", "held-out subject '{}' has samples in the training set"),
        ("digests", "a held-out sample of subject '{}' appears in the training set"),
    ):
        shared = _found_in(getattr(test, column), getattr(train, column))
        if shared.any():
            raise LeakageError(message.format(test.subjects[shared.argmax()]))


def release_cycles() -> None:
    """Collect cyclic garbage before a run builds its tapes.

    Tapes are acyclic and batched, so a run allocates too few objects to
    trigger CPython's full collections; cycles the caller left behind (for
    example modules dropped by a re-import) would otherwise stay resident
    across many runs and raise peak memory with every one.
    """
    gc.collect()


def sample_graph(samples: SampleSet, magnification: float) -> np.ndarray:
    """Preprocessing pipeline: magnify motion, then build the (N, 3, 31, 2)
    node features. A sample whose magnified coordinates overflow or whose
    onset has no extent is rejected by subject."""
    frames = magnify(samples.frames, magnification)
    finite = finite_samples(frames)
    if not finite.all():
        bad = samples.subjects[finite.argmin()]
        raise ValueError(f"sample '{bad}': non-finite coordinates")
    try:
        return build_graph(frames)
    except DegenerateFrameError as exc:
        raise DegenerateFrameError(exc.index, samples.subjects[exc.index]) from None


def _with_copies(samples: SampleSet, features: np.ndarray, cfg: ExperimentConfig, rng):
    """The samples followed by ``cfg.augment.copies`` jittered copies of
    each, and their node features. ``features`` holds the originals', so
    only the copies are preprocessed here."""
    if cfg.augment.copies == 0:
        return samples, features
    copies = crop_jitter(samples, rng, **encode(cfg.augment))
    extra = sample_graph(copies, cfg.magnification)
    return samples.concat(copies), np.concatenate([features, extra])


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
    curves: list[dict]
    epochs_run: int


def train_fold(
    features: np.ndarray,
    labels: np.ndarray,
    config: ExperimentConfig,
    rng: np.random.Generator,
    model_rng: np.random.Generator | int,
    context: str = "training",
) -> TrainOutcome:
    """Run epochs of mini-batch descent on one training set, given as its
    preprocessed node features (see :func:`sample_graph`) and its labels.

    Losses the configured variant cannot produce inputs for are dropped
    before training starts. Stops early once the epoch-mean loss plateaus.
    """
    n = len(labels)
    if not n:
        raise ValueError(f"{context}: training set is empty")
    model = ActionRelationNet(config.model, seed=model_rng)
    eff = for_variant(config.loss_weights, config.model.variant)
    needs_pairs = eff.feature_center != 0.0
    if needs_pairs and n < 2:
        raise ValueError(
            f"{context}: the feature-center loss needs at least 2 samples"
        )
    table = None
    if eff.weight_center != 0.0:
        table = WeightCenterTable(
            n_classes=config.model.n_classes,
            n_rows=config.model.n_action_rows,
            rate=config.center_rate,
        )

    opt = config.optimizer

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
                result = model.forward(features[idx])
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
            del result, breakdown  # frees this step's tape before the next forward
        epochs_run = epoch + 1
        epoch_mean = epoch_total / n
        if best - epoch_mean > opt.plateau_tol:
            best = epoch_mean
            stall = 0
        else:
            stall += 1
            if stall >= opt.plateau_patience:
                break
    return TrainOutcome(model=model, curves=curves, epochs_run=epochs_run)


@dataclass
class FoldReport:
    subject: str
    y_true: list[int]
    y_pred: list[int]
    logits: list[list[float]]
    accuracy: float
    epochs_run: int


# Evaluation runs the model on stacked chunks of at most this many samples,
# so memory stays flat however large the evaluation set is.
EVAL_CHUNK = 64


def evaluate(
    model: ActionRelationNet,
    samples: SampleSet,
    magnification: float,
    features: np.ndarray | None = None,
):
    """Argmax predictions without augmentation or any state mutation.

    ``features`` are the samples' node features when the caller has
    already preprocessed them; otherwise each chunk is preprocessed on its
    own.
    """
    if not len(samples):
        raise ValueError("evaluation set is empty")
    chunks = []
    with model.params.frozen():  # no forward here keeps a tape
        for start in range(0, len(samples), EVAL_CHUNK):
            chunk = slice(start, start + EVAL_CHUNK)
            if features is None:
                batch = sample_graph(samples[chunk], magnification)
            else:
                batch = features[chunk]
            chunks.append(model.forward(batch).logits.data)
    logits = np.concatenate(chunks)
    return samples.labels.tolist(), logits.argmax(axis=1).tolist(), logits.tolist()


@dataclass
class RunReport:
    config: dict
    folds: list[FoldReport]
    fold_subjects: list[str]
    pooled_accuracy: float
    f1_macro: float
    f1_per_class: list[float]
    f1_undefined_classes: list[int]
    wall_time: float

    def canonical(self) -> dict:
        """Report content minus wall time; bit-stable across repeated runs."""
        return _without_wall_time(self)


def _without_wall_time(report) -> dict:
    """:func:`encode` of a report, minus its one nondeterministic field."""
    d = encode(report)
    del d["wall_time"]
    return d


def _fold_report(subject: str, scored, epochs_run: int) -> FoldReport:
    """One fold of a run from ``scored``, the (labels, predictions, logits)
    triple of :func:`evaluate`."""
    return FoldReport(subject, *scored, accuracy(*scored[:2]), epochs_run)


def _run_report(config: ExperimentConfig, folds: list[FoldReport], t0: float):
    """Pool the folds' predictions into the run report."""
    pooled_true = np.concatenate([r.y_true for r in folds])
    pooled_pred = np.concatenate([r.y_pred for r in folds])
    pooled_acc = accuracy(pooled_true, pooled_pred)
    weighted = sum(r.accuracy * len(r.y_true) for r in folds) / len(pooled_true)
    if abs(pooled_acc - weighted) > 1e-12:
        raise InvariantError(
            "pooled accuracy does not equal the sample-weighted fold mean"
        )
    f1 = f1_report(pooled_true, pooled_pred, config.model.n_classes)
    return RunReport(
        config=encode(config),
        folds=folds,
        fold_subjects=[r.subject for r in folds],
        pooled_accuracy=pooled_acc,
        f1_macro=f1.macro,
        f1_per_class=f1.per_class,
        f1_undefined_classes=f1.undefined_classes,
        wall_time=time.perf_counter() - t0,
    )


def _loso_fold(config, samples, features, subject, held_out, seeds, keep_state):
    """Train and score the fold that holds out ``subject``: its report, its
    curve rows and, when ``keep_state``, its parameters' state dict."""
    data_ss, model_ss = seeds.spawn(2)
    rng = np.random.default_rng(data_ss)
    test = samples[held_out]
    train, train_features = _with_copies(samples[~held_out], features[~held_out],
                                         config, rng)
    check_no_leakage(train, test)
    outcome = train_fold(train_features, train.labels, config, rng,
                         np.random.default_rng(model_ss), context=f"fold {subject}")
    scored = evaluate(outcome.model, test, config.magnification, features[held_out])
    report = _fold_report(subject, scored, outcome.epochs_run)
    state = outcome.model.params.state_dict() if keep_state else None
    return report, [(subject, row) for row in outcome.curves], state


WORKER_GRACE_S = 60.0  # a child's wait before it counts as hung: see _map_folds


def _workers() -> int:
    """Processes that run a run's shares: one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _blas_threads():
    """numpy's OpenBLAS thread count setter, returning the old count, or a no-op."""
    with suppress(OSError, StopIteration, AttributeError), open("/proc/self/maps") as fh:
        lib = ctypes.CDLL(next(ln.split()[-1] for ln in fh if "libscipy_openblas64_" in ln))
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
        get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
        return lambda n: (get(), put(n))[0]
    return lambda n: None


def _map_folds(fold_fn, folds, workers, what="folds"):
    """``[fold_fn(*fold) for fold in folds]`` (a fold's first item names it
    after ``what``), the caller running the first of ``workers`` contiguous shares
    and a forked child each other share. The first fold to fail raises, as in
    a serial run. Every child is reaped; one is killed if the caller fails, or
    if it sends nothing for :data:`WORKER_GRACE_S` plus ten times the time of
    the caller's share once that ends."""
    w, n = min(workers, len(folds)), len(folds)
    if w < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fold_fn(*fold) for fold in folds]  # no fork beside threads: unsafe
    shares = [folds[n * i // w:n * (i + 1) // w] for i in range(w)]
    pending = []  # (pid, pipe's read end, share) of children not yet reaped
    threads = _blas_threads()(1)  # every process on one: more threads than CPUs crawl
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_share(fold_fn, share, write_fd)
            os.close(write_fd)
            pending.append((pid, read_fd, share))
        t0 = time.monotonic()
        results = [fold_fn(*fold) for fold in shares[0]]
        wait = WORKER_GRACE_S + 10 * (time.monotonic() - t0)
        deadline = time.monotonic() + wait
        while pending:
            pid, fd, share = pending[0]
            payload = _read_by(fd, deadline)
            if payload is None:
                os.kill(pid, signal.SIGKILL)
            os.close(fd)
            del pending[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            who = f"the worker for {what} {', '.join(f[0] for f in share)}"
            if payload is None or code != 0:
                how = (f"killed after {wait:.0f} s" if payload is None
                       else f"signal {-code}" if code < 0 else f"exit code {code}")
                raise ChildProcessError(f"{who} ended ({how}) before sending its results")
            done, caught, error, trace = pickle.loads(payload)
            # raise each warning again under its module's name and registry
            by_file = {getattr(m, "__file__", None): vars(m)
                       for m in list(sys.modules.values())}
            for msg, category, filename, lineno in caught:
                g = by_file.get(filename, {"__name__": None})
                warnings.warn_explicit(msg, category, filename, lineno, g["__name__"],
                                       g.setdefault("__warningregistry__", {}))
            if error is not None:
                error.add_note(f"raised in {who}:\n{trace}")
                raise error
            results += done
        return results
    finally:
        for pid, fd, _ in pending:
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
        _blas_threads()(threads)


def _read_by(fd, deadline):
    """All bytes from pipe ``fd`` up to its end, or None at ``deadline``."""
    poll, chunks = select.poll(), []
    poll.register(fd, select.POLLIN)
    while poll.poll(max(0.0, deadline - time.monotonic()) * 1000):
        chunks.append(os.read(fd, 1 << 20))
        if not chunks[-1]:
            return b"".join(chunks)
    return None


def _run_share(fold_fn, share, write_fd) -> None:
    """A forked child's life: run a share of folds, send the results, warnings,
    error and traceback down ``write_fd``, and exit, 0 once all is sent."""
    code, done, error, trace = 1, [], None, None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # the parent's filters decide
            try:
                for fold in share:
                    done.append(fold_fn(*fold))
            except BaseException as exc:
                error, trace = exc, "".join(traceback.format_exception(exc))
        caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        view = memoryview(pickle.dumps((done, caught, error, trace)))
        while view:
            view = view[os.write(write_fd, view):]
        code = 0
    finally:
        os._exit(code)


def run_loso(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Train and score one model per held-out subject; pool the predictions."""
    t0 = time.perf_counter()
    release_cycles()
    samples = prepare_samples(config)
    folds = loso_split(samples)
    children = np.random.SeedSequence(config.seed).spawn(len(folds))
    features = sample_graph(samples, config.magnification)
    results = _map_folds(
        partial(_loso_fold, config, samples, features),
        [(subject, held_out, ss, out_dir is not None)
         for (subject, held_out), ss in zip(folds, children)],
        _workers(),
    )
    fold_reports = [report for report, _, _ in results]
    all_curves = [row for _, rows, _ in results for row in rows]

    run = _run_report(config, fold_reports, t0)
    if sum(len(f.y_true) for f in fold_reports) != len(samples):
        raise InvariantError(
            "held-out samples do not partition the dataset exactly once"
        )
    if out_dir is not None:
        checkpoints = {f"fold_{report.subject}": state for report, _, state in results}
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
    features = sample_graph(samples, config.magnification)
    train, train_features = _with_copies(samples, features, config, rng)
    outcome = train_fold(
        train_features, train.labels, config, rng, np.random.default_rng(model_ss)
    )
    scored = evaluate(outcome.model, samples, config.magnification, features)
    run = _run_report(config, [_fold_report("(all)", scored, outcome.epochs_run)], t0)
    if out_dir is not None:
        curves = [("(all)", row) for row in outcome.curves]
        checkpoints = {"final": outcome.model.params.state_dict()}
        write_run_dir(out_dir, config, run, curves, checkpoints, fold_name="all")
    return run


def evaluate_checkpoint(
    config: ExperimentConfig, checkpoint_path, out_dir=None
) -> RunReport:
    """Score a :func:`~megraph.params.write_checkpoint` file on the configured
    dataset, a regular file in one share of lines per worker. An entry set or
    shape other than the model's ``state_dict`` is a ValueError naming the
    file and the missing and extra names, raised before the dataset is read."""
    t0 = time.perf_counter()
    release_cycles()
    model = ActionRelationNet(config.model, seed=0)
    state = read_checkpoint(checkpoint_path)
    try:
        model.params.load_state_dict(state)
    except ValueError as exc:
        raise ValueError(f"{checkpoint_path}: {exc}") from None
    regular = config.dataset is not None and os.path.isfile(config.dataset)
    lines = sample_lines(config.dataset) if regular else None  # else serial
    chunks = -(-len(lines or ()) // EVAL_CHUNK)
    w, scored = min(_workers(), chunks), None
    cuts = [EVAL_CHUNK * (chunks * i // w) for i in range(w)] + [len(lines or ())]
    shares = [(f"{lines[a][1]}-{lines[b - 1][1]}", lines[a:b])
              for a, b in zip(cuts, cuts[1:])]
    if w > 1:  # a data error in any share is left to the serial scoring below
        with suppress(ValueError, FloatingPointError, InvariantError):
            parts = _map_folds(lambda _, part: evaluate(model, prepare_samples(
                config, part), config.magnification), shares, w, "lines")
            scored = [sum(c, []) for c in zip(*parts)]  # in file order
    scored = scored or evaluate(model, prepare_samples(config, lines), config.magnification)
    run = _run_report(config, [_fold_report("(eval)", scored, 0)], t0)
    if out_dir is not None:
        write_run_dir(out_dir, config, run, [], {}, fold_name="eval")
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
    lines += [
        "",
        f"  pooled accuracy: {run.pooled_accuracy:.4f}",
        f"  f1 (macro): {run.f1_macro:.4f}",
        f"  f1 per class: {', '.join(f'{v:.4f}' for v in run.f1_per_class)}",
    ]
    if run.f1_undefined_classes:
        lines.append(
            "  note: classes "
            f"{run.f1_undefined_classes} never appeared (f1 set to 0)"
        )
    return "\n".join(lines) + "\n"


def write_curves(path, curves: list[tuple[str, dict]]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("fold",) + CURVE_COLUMNS)
        for subject, row in curves:
            writer.writerow([subject] + [repr(row[c]) for c in CURVE_COLUMNS])


def write_run_dir(out_dir, config, run, curves, checkpoints, fold_name=None) -> None:
    """Lay out config.json, folds/, report.json, report.txt, curves.csv,
    checkpoints/ under one directory; each file is written atomically. Each
    LOSO fold is filed as folds/<subject>.json; a one-fold run passes its
    file's ``fold_name``."""
    out = Path(out_dir)
    (out / "folds").mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(exist_ok=True)
    save_config(config, out / "config.json")
    for fr in run.folds:
        atomic_write_text(out / "folds" / f"{fold_name or fr.subject}.json", dumps(fr))
    atomic_write_text(out / "report.json", dumps(run))
    atomic_write_text(out / "report.txt", format_report(run))
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

    def canonical(self) -> dict:
        return _without_wall_time(self)


def run_ablation(config: ExperimentConfig, out_dir=None) -> AblationReport:
    """Module rows (backbone, actions, full) and loss-removal rows, all on
    identical splits and seeds. Each distinct configuration trains once: the
    two "full" rows share a run, as does a row whose removed term weighs zero."""
    t0 = time.perf_counter()
    runs: dict[ExperimentConfig, RunReport] = {}

    def row(cfg: ExperimentConfig, **fields) -> dict:
        if cfg not in runs:
            run = runs[cfg] = run_loso(cfg)
            if run.fold_subjects != next(iter(runs.values())).fold_subjects:
                raise InvariantError("ablation rows saw different LOSO splits")
        run = runs[cfg]
        return {**fields, "accuracy": run.pooled_accuracy, "f1_macro": run.f1_macro}

    modules = [row(replace(config, model=replace(config.model, variant=variant)),
                   name=variant, variant=variant) for variant in MODULE_ROWS]
    losses = []
    full = replace(config, model=replace(config.model, variant="full"))
    for name in LOSS_ROWS:
        removed = {} if name == "full" else {name.removeprefix("no_"): 0.0}
        w = replace(full.loss_weights, **removed)
        losses.append(row(replace(full, loss_weights=w), name=name, loss_weights=encode(w)))

    report = AblationReport(
        config=encode(config),
        modules=modules,
        losses=losses,
        fold_subjects=next(iter(runs.values())).fold_subjects,
        wall_time=time.perf_counter() - t0,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_config(config, out / "config.json")
        atomic_write_text(out / "ablation.json", dumps(report))
        atomic_write_text(out / "ablation.txt", format_ablation(report))
    return report


def format_ablation(report: AblationReport) -> str:
    lines = []
    for title, rows in (("module ablation", report.modules),
                        ("loss ablation", report.losses)):
        lines += [title, f"  {'row':<20} {'acc':>8} {'f1':>8}"]
        for r in rows:
            lines.append(f"  {r['name']:<20} {r['accuracy']:>8.4f} {r['f1_macro']:>8.4f}")
        lines.append("")
    return "\n".join(lines)

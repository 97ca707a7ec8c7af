"""Splitting, leakage detection, fold training, reports, and ablations."""

import ctypes
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from megraph.cli import main
from megraph.config import (
    AugmentConfig,
    ExperimentConfig,
    OptimizerConfig,
    SynthSpec,
    load_config,
    save_config,
)
import megraph.autodiff
import megraph.landmarks
import megraph.params
import megraph.training
from megraph.checks import _tape
from megraph.files import encode_float64
from megraph.graph import DegenerateFrameError
from megraph.landmarks import SampleSet, load_samples, save_samples, synthesize_dataset
from megraph.losses import LossWeights
from megraph.model import ActionRelationNet, InvariantError, ModelConfig
from megraph.params import read_checkpoint, write_checkpoint
from megraph.training import (
    CURVE_COLUMNS,
    EVAL_CHUNK,
    LOSS_ROWS,
    MODULE_ROWS,
    AblationReport,
    DivergenceError,
    LeakageError,
    _batch_slices,
    _found_in,
    _with_copies,
    check_no_leakage,
    evaluate,
    evaluate_checkpoint,
    format_ablation,
    loso_split,
    prepare_samples,
    run_ablation,
    run_loso,
    run_training,
    sample_graph,
    train_fold,
)


V1_SAMPLES = Path(__file__).parent / "data" / "samples_v1.jsonl"


def subject_set(subjects) -> SampleSet:
    """Distinct samples (sample i has every coordinate i) of the given
    subjects, all labelled 0."""
    n = len(subjects)
    frames = np.arange(n, dtype=np.float64)[:, None, None, None] + np.zeros((3, 68, 2))
    return SampleSet(frames, np.zeros(n, dtype=np.int64), subjects)


class TestSplitting:
    def test_one_fold_per_subject_in_sorted_order(self):
        samples = synthesize_dataset(n_subjects=4, samples_per_subject=3, seed=0)
        folds = loso_split(samples)
        assert [subject for subject, _ in folds] == ["s01", "s02", "s03", "s04"]
        for subject, held_out in folds:
            assert held_out.shape == (len(samples),)
            assert (samples.subjects[held_out] == subject).all()
            assert (samples.subjects[~held_out] != subject).all()

    def test_needs_two_subjects(self):
        samples = synthesize_dataset(n_subjects=1, samples_per_subject=3, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            loso_split(samples)

    def test_folds_partition_the_dataset(self):
        samples = synthesize_dataset(n_subjects=5, samples_per_subject=4, seed=1)
        masks = np.stack([held_out for _, held_out in loso_split(samples)])
        assert (masks.sum(axis=0) == 1).all()

    @settings(max_examples=100, deadline=None)
    @given(subjects=st.lists(st.sampled_from(["a", "b", "B", "s10", "s2", "é"]),
                             min_size=2, max_size=12))
    def test_masks_hold_out_every_sample_once_in_subject_order(self, subjects):
        samples = subject_set(subjects)
        if len(set(subjects)) < 2:
            with pytest.raises(ValueError, match="at least 2"):
                loso_split(samples)
            return
        folds = loso_split(samples)
        assert [subject for subject, _ in folds] == sorted(set(subjects))
        masks = np.stack([held_out for _, held_out in folds])
        assert (masks.sum(axis=0) == 1).all()
        for subject, held_out in folds:
            assert held_out.tolist() == [s == subject for s in subjects]


class TestLeakage:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.sampled_from(["a", "b", "c", "é"]), max_size=6),
           pool=st.lists(st.sampled_from(["a", "b", "c", "é"]), max_size=6))
    def test_membership_matches_isin(self, values, pool):
        values, pool = np.array(values, dtype=str), np.array(pool, dtype=str)
        assert _found_in(values, pool).tolist() == np.isin(values, pool).tolist()

    def test_subject_overlap_detected(self):
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=0)
        s01 = samples[samples.subjects == "s01"]
        with pytest.raises(LeakageError, match="subject"):
            check_no_leakage(samples, s01[:1])

    def test_shared_frames_detected(self):
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=0)
        s01 = samples[samples.subjects == "s01"]
        s02 = samples[samples.subjects == "s02"]
        twin = SampleSet(s01.frames[:1], s01.labels[:1], ["s02"])
        with pytest.raises(LeakageError, match="appears in the"):
            check_no_leakage(s02.concat(twin), s01)

    def test_clean_split_passes(self):
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=0)
        _, held_out = loso_split(samples)[0]
        check_no_leakage(samples[~held_out], samples[held_out])

    @settings(max_examples=100, deadline=None)
    @given(
        subjects=st.lists(st.sampled_from(["s01", "s02", "s03", "s04"]),
                          min_size=2, max_size=10),
        data=st.data(),
    )
    def test_any_planted_subject_or_digest_is_caught(self, subjects, data):
        assume(len(set(subjects)) >= 2)
        samples = subject_set(subjects)
        folds = loso_split(samples)
        subject, held_out = folds[data.draw(st.integers(0, len(folds) - 1))]
        train, test = samples[~held_out], samples[held_out]
        check_no_leakage(train, test)
        row = data.draw(st.integers(0, len(test) - 1))
        planted = test[[row]]
        at = data.draw(st.integers(0, len(train)))
        with pytest.raises(LeakageError, match=f"held-out subject '{subject}'"):
            check_no_leakage(train[:at].concat(planted).concat(train[at:]), test)
        # the same frames under a training subject's name
        other = train.subjects[0]
        twin = SampleSet(planted.frames, planted.labels, [other])
        with pytest.raises(
            LeakageError,
            match=f"a held-out sample of subject '{subject}' appears in the",
        ):
            check_no_leakage(train[:at].concat(twin).concat(train[at:]), test)

    def test_duplicated_frames_across_subjects_fail_a_run(self, tmp_path):
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=2,
                                     n_classes=2, seed=0)
        clone = SampleSet(samples.frames[:1], samples.labels[:1], ["s02"])
        path = tmp_path / "leaky.jsonl"
        save_samples(samples.concat(clone), path)
        cfg = ExperimentConfig(
            dataset=str(path),
            synth=None,
            model=ModelConfig(variant="backbone", channels=4, n_actions=2,
                              relation_channels=3, n_classes=2),
            optimizer=OptimizerConfig(lr=0.01, epochs=1, batch_size=4),
        )
        with pytest.raises(LeakageError):
            run_loso(cfg)


class TestPreprocessing:
    def test_bad_samples_in_a_batch_are_rejected_by_subject(self, unusable_samples):
        samples, first = unusable_samples
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="sample 's03': non-finite"):
                sample_graph(samples, 3.0)
        samples = samples[np.arange(len(samples)) != first["s03"]]
        with pytest.raises(DegenerateFrameError, match="sample 's02': onset"):
            sample_graph(samples, 3.0)

    @pytest.mark.parametrize("bad", [1e308, -1e308], ids=["inf", "-inf"])
    def test_each_overflow_names_the_first_subject(self, unusable_samples, bad):
        # an apex (s03) and an earlier sample's offset (s02) whose magnified
        # coordinates overflow to +inf or -inf; NaN cannot come out of
        # finite input, and SampleSet rejects non-finite input
        samples, first = unusable_samples
        frames = samples.frames.copy()
        frames[first["s03"], 1] = frames[first["s02"] + 1, 2] = bad
        samples = SampleSet(frames, samples.labels, samples.subjects)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^sample 's02': non-finite coordinates$"):
                sample_graph(samples, 3.0)

    @pytest.mark.parametrize("copies", [0, 1])
    def test_loso_preprocesses_once_per_run(self, monkeypatch, copies):
        # The dataset is preprocessed once and each fold adds at most one
        # call for its jittered copies, however many samples a subject has.
        real = megraph.training.build_graph
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(megraph.training, "build_graph", counting)
        _set_workers(monkeypatch, 1)  # a forked fold's calls are not counted here
        k = 3
        counts = []
        for per_subject in (2, 5):
            calls.clear()
            run_loso(
                ExperimentConfig(
                    synth=SynthSpec(n_subjects=k, samples_per_subject=per_subject,
                                    n_classes=2),
                    model=ModelConfig(variant="backbone", channels=2, n_classes=2),
                    optimizer=OptimizerConfig(epochs=1, batch_size=4),
                    augment=AugmentConfig(copies=copies),
                )
            )
            counts.append(len(calls))
        assert counts == [1 + copies * k] * 2
        assert max(counts) <= 2 * k

    @pytest.mark.parametrize("copies", [0, 1, 2])
    def test_loso_hashes_each_sample_and_copy_once(self, monkeypatch, copies):
        # The dataset is hashed once per run; each fold hashes only its
        # jittered training copies.
        real = hashlib.sha256
        calls = []

        def counting(data):
            calls.append(1)
            return real(data)

        monkeypatch.setattr(megraph.landmarks.hashlib, "sha256", counting)
        _set_workers(monkeypatch, 1)  # a forked fold's calls are not counted here
        k, per_subject = 3, 4
        run_loso(
            ExperimentConfig(
                synth=SynthSpec(n_subjects=k, samples_per_subject=per_subject,
                                n_classes=2),
                model=ModelConfig(variant="backbone", channels=2, n_classes=2),
                optimizer=OptimizerConfig(epochs=1, batch_size=4),
                augment=AugmentConfig(copies=copies),
            )
        )
        n = k * per_subject
        assert len(calls) == n + k * copies * (n - per_subject)


class TestPrepareSamples:
    def test_synth_and_file_sources(self, tmp_path):
        cfg = ExperimentConfig(
            synth=SynthSpec(n_subjects=2, samples_per_subject=2, n_classes=3)
        )
        assert len(prepare_samples(cfg)) == 4
        path = tmp_path / "d.jsonl"
        save_samples(synthesize_dataset(2, 2, n_classes=3), path)
        from_file = replace(cfg, dataset=str(path))
        assert len(prepare_samples(from_file)) == 4

    def test_label_beyond_model_classes_rejected(self):
        cfg = ExperimentConfig(
            synth=SynthSpec(n_subjects=2, samples_per_subject=5, n_classes=5),
            model=ModelConfig(n_classes=3),
        )
        with pytest.raises(ValueError, match="label"):
            prepare_samples(cfg)


class TestAugmentation:
    def test_copy_count_and_identity(self):
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=2, seed=0)
        cfg = ExperimentConfig(augment=AugmentConfig(copies=2))
        features = sample_graph(samples, cfg.magnification)
        train, train_features = _with_copies(samples, features, cfg,
                                             np.random.default_rng(0))
        assert len(train) == len(samples) * 3
        np.testing.assert_array_equal(train.frames[: len(samples)], samples.frames)
        assert train.subjects.tolist() == samples.subjects.tolist() + [
            s for s in samples.subjects.tolist() for _ in range(2)
        ]
        assert train.labels.tolist() == samples.labels.tolist() + [
            y for y in samples.labels.tolist() for _ in range(2)
        ]
        for i, frames in enumerate(train.frames[len(samples):]):
            assert not np.array_equal(frames, samples.frames[i // 2])
        copies = train[len(samples):]
        want = sample_graph(copies, cfg.magnification)
        np.testing.assert_array_equal(
            train_features, np.concatenate([features, want])
        )

    def test_zero_copies_is_identity(self):
        samples = synthesize_dataset(n_subjects=1, samples_per_subject=2, seed=0)
        features = sample_graph(samples, 3.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        train, train_features = _with_copies(samples, features, ExperimentConfig(), rng)
        assert train is samples and train_features is features
        assert rng.bit_generator.state == state


class TestBatchSlices:
    def test_plain_chunks(self):
        assert _batch_slices(5, 2, merge_tail=False) == [
            slice(0, 2), slice(2, 4), slice(4, 5),
        ]

    def test_trailing_singleton_merged_when_needed(self):
        assert _batch_slices(5, 2, merge_tail=True) == [
            slice(0, 2), slice(2, 5),
        ]
        # a lone batch is never merged away
        assert _batch_slices(1, 4, merge_tail=True) == [slice(0, 1)]


def fold_inputs(cfg):
    """The configured dataset's node features and labels, as train_fold
    takes them."""
    samples = prepare_samples(cfg)
    return sample_graph(samples, cfg.magnification), samples.labels


class TestTrainFold:
    def small_config(self, **kwargs):
        defaults = dict(
            synth=SynthSpec(n_subjects=2, samples_per_subject=3, n_classes=3,
                            noise_sigma=1.0, seed=0),
            model=ModelConfig(variant="full", channels=4, n_actions=2,
                              relation_channels=3, n_classes=3),
            optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=5,
                                      batch_size=4),
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_zero_epochs_returns_fresh_init(self):
        cfg = self.small_config(
            optimizer=OptimizerConfig(lr=0.05, epochs=0, batch_size=4)
        )
        outcome = train_fold(
            *fold_inputs(cfg), cfg, np.random.default_rng(0), np.random.default_rng(7)
        )
        assert outcome.epochs_run == 0
        assert outcome.curves == []
        fresh = ActionRelationNet(cfg.model, seed=np.random.default_rng(7))
        trained = outcome.model.params.state_dict()
        for name, values in fresh.params.state_dict().items():
            np.testing.assert_array_equal(trained[name], values)

    def test_loss_decreases_on_learnable_data(self):
        cfg = self.small_config(
            optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=30,
                                      batch_size=8)
        )
        outcome = train_fold(
            *fold_inputs(cfg), cfg, np.random.default_rng(0), np.random.default_rng(1)
        )
        assert outcome.curves[-1]["total"] < outcome.curves[0]["total"]
        assert outcome.curves[0]["step"] == 1
        assert [row["step"] for row in outcome.curves] == list(
            range(1, len(outcome.curves) + 1)
        )
        for row in outcome.curves:
            assert set(row) == set(CURVE_COLUMNS)

    def test_empty_training_set_rejected(self):
        cfg = self.small_config()
        features, labels = fold_inputs(cfg)
        with pytest.raises(ValueError, match="empty"):
            train_fold(features[:0], labels[:0], cfg, np.random.default_rng(0), 0)

    def test_divergence_is_reported_with_position(self):
        cfg = self.small_config(
            optimizer=OptimizerConfig(lr=1e12, momentum=0.9, epochs=10,
                                      batch_size=4)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                train_fold(
                    *fold_inputs(cfg), cfg,
                    np.random.default_rng(0), np.random.default_rng(1),
                )

    def test_a_step_frees_the_previous_steps_tape(self, monkeypatch):
        cfg = self.small_config(
            optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=3, batch_size=2)
        )
        tapes = []
        forward, total_loss = ActionRelationNet.forward, megraph.training.total_loss

        def checked_forward(model, features):
            # no node of an earlier step's tape is alive when a forward starts
            assert all(ref() is None for tape in tapes for ref in tape)
            return forward(model, features)

        def recorded_loss(*args, **kwargs):
            breakdown = total_loss(*args, **kwargs)
            # every array on the tape but the parameters dies with it (a 0-d
            # op on a 0-d operand leaves a numpy scalar, which has no weakref)
            tapes.append([
                weakref.ref(node.data) for node in _tape(breakdown.total)
                if not node.requires_grad and isinstance(node.data, np.ndarray)
            ])
            return breakdown

        monkeypatch.setattr(ActionRelationNet, "forward", checked_forward)
        monkeypatch.setattr(megraph.training, "total_loss", recorded_loss)
        outcome = train_fold(
            *fold_inputs(cfg), cfg, np.random.default_rng(0), np.random.default_rng(1)
        )
        assert len(tapes) == len(outcome.curves) >= 6
        assert all(ref() is None for tape in tapes for ref in tape)

    def test_plateau_stops_early(self):
        # backbone variant trains on the classification term alone, so a
        # vanishing lr freezes the epoch-mean loss entirely
        cfg = self.small_config(
            model=ModelConfig(variant="backbone", channels=4, n_actions=2,
                              relation_channels=3, n_classes=3),
            optimizer=OptimizerConfig(lr=1e-9, momentum=0.0, epochs=50,
                                      batch_size=8, plateau_patience=3,
                                      plateau_tol=1e-4),
        )
        outcome = train_fold(
            *fold_inputs(cfg), cfg, np.random.default_rng(0), np.random.default_rng(1)
        )
        # first epoch sets the best, then 3 stalled epochs trip the stop
        assert outcome.epochs_run == 4


class TestEvaluate:
    def test_holds_the_frames_and_one_chunk(self, monkeypatch, traced_peak):
        samples = synthesize_dataset(n_subjects=50, samples_per_subject=20, seed=0)
        model = ActionRelationNet(ModelConfig(), seed=0)
        _, peak = traced_peak(evaluate, model, samples, 3.0)
        # the forwards run frozen, so no chunk keeps a tape
        assert peak <= samples.frames.nbytes + samples.frames[:EVAL_CHUNK].nbytes
        assert all(p.requires_grad for _, p in model.params.items())

        def fail(features):
            assert not any(p.requires_grad for _, p in model.params.items())
            raise FloatingPointError("forward failed")

        monkeypatch.setattr(model, "forward", fail)
        with pytest.raises(FloatingPointError):
            evaluate(model, samples[:3], 3.0)
        assert all(p.requires_grad for _, p in model.params.items())

    def test_pure_and_ordered(self):
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=3,
                                     n_classes=3, seed=0)
        model = ActionRelationNet(
            ModelConfig(variant="full", channels=4, n_actions=2,
                        relation_channels=3, n_classes=3),
            seed=0,
        )
        before = model.params.state_dict()
        y_true, y_pred, logits = evaluate(model, samples, magnification=3.0)
        assert y_true == samples.labels.tolist()
        assert len(y_pred) == len(samples)
        assert all(0 <= p < 3 for p in y_pred)
        assert [int(np.argmax(row)) for row in logits] == y_pred
        after = model.params.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        with pytest.raises(ValueError):
            evaluate(model, samples[:0], magnification=3.0)


def tiny_loso_config(**kwargs):
    defaults = dict(
        synth=SynthSpec(n_subjects=3, samples_per_subject=3, n_classes=3,
                        noise_sigma=1.0, seed=0),
        model=ModelConfig(variant="full", channels=4, n_actions=2,
                          relation_channels=3, n_classes=3),
        optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=3,
                                  batch_size=4),
        seed=0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRunLoso:
    def test_report_structure(self):
        run = run_loso(tiny_loso_config())
        assert run.fold_subjects == ["s01", "s02", "s03"]
        assert len(run.folds) == 3
        assert sum(len(f.y_true) for f in run.folds) == 9
        assert 0.0 <= run.pooled_accuracy <= 1.0
        assert len(run.f1_per_class) == 3
        assert run.wall_time > 0

    def test_bitwise_deterministic_given_seed(self):
        a = run_loso(tiny_loso_config())
        b = run_loso(tiny_loso_config())
        assert json.dumps(a.canonical(), sort_keys=True) == json.dumps(
            b.canonical(), sort_keys=True
        )

    def test_seed_changes_the_run(self):
        a = run_loso(tiny_loso_config(seed=0))
        with warnings.catch_warnings():
            # an early-training step may pass through an all-dead relation
            # layer; the uniform fallback is expected there
            warnings.simplefilter("ignore", RuntimeWarning)
            b = run_loso(tiny_loso_config(seed=1))
        assert json.dumps(a.canonical()) != json.dumps(b.canonical())

    def test_fold_parameters_are_copied_only_for_a_run_dir(self, monkeypatch, tmp_path):
        copies = []
        state_dict = megraph.params.ParamStore.state_dict

        def counting(store):
            copies.append(store)
            return state_dict(store)

        monkeypatch.setattr(megraph.params.ParamStore, "state_dict", counting)
        _set_workers(monkeypatch, 1)  # a forked fold's calls are not counted here
        run_loso(tiny_loso_config())
        assert copies == []
        run_loso(tiny_loso_config(), out_dir=tmp_path / "run")
        assert len(copies) == 3

    def test_run_dir_layout(self, tmp_path):
        out = tmp_path / "run"
        run = run_loso(tiny_loso_config(), out_dir=out)
        assert (out / "config.json").is_file()
        assert (out / "report.json").is_file()
        assert (out / "report.txt").is_file()
        assert (out / "curves.csv").is_file()
        for subject in run.fold_subjects:
            assert (out / "folds" / f"{subject}.json").is_file()
            state = read_checkpoint(out / "checkpoints" / f"fold_{subject}.json")
            assert state  # non-empty parameter map
        header = (out / "curves.csv").read_text().splitlines()[0]
        assert header == "fold," + ",".join(CURVE_COLUMNS)
        report = json.loads((out / "report.json").read_text())
        assert report["pooled_accuracy"] == run.pooled_accuracy

    def test_each_subject_has_its_own_fold_file(self, tmp_path):
        # subjects that differ only by parentheses, or that are "()" and
        # "fold", are distinct folds and must not share a file
        samples = synthesize_dataset(n_subjects=4, samples_per_subject=2, n_classes=3)
        renamed = {"s01": "(s02)", "s03": "()", "s04": "fold"}
        subjects = [renamed.get(s, s) for s in samples.subjects]
        data = tmp_path / "data.jsonl"
        save_samples(SampleSet(samples.frames, samples.labels, subjects), data)
        out = tmp_path / "run"
        cfg = tiny_loso_config(dataset=str(data), synth=None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # relation fallbacks
            run = run_loso(cfg, out_dir=out)
        files = sorted(p.name for p in (out / "folds").iterdir())
        assert files == sorted(f"{s}.json" for s in run.fold_subjects)
        assert len(files) == 4
        for subject in run.fold_subjects:
            fold = json.loads((out / "folds" / f"{subject}.json").read_text())
            assert fold["subject"] == subject

    def test_checkpoints_round_trip_through_json(self, tmp_path):
        out = tmp_path / "run"
        run_loso(tiny_loso_config(), out_dir=out)
        again = tmp_path / "again"
        run_loso(tiny_loso_config(), out_dir=again)
        for name in ("fold_s01", "fold_s02", "fold_s03"):
            a = read_checkpoint(out / "checkpoints" / f"{name}.json")
            b = read_checkpoint(again / "checkpoints" / f"{name}.json")
            assert set(a) == set(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_either_frames_encoding_gives_the_same_run(self, tmp_path):
        """The nested-list fixture and its base64 rewrite, read from one
        path, give the same canonical reports, checkpoints and scores."""
        data = tmp_path / "data.jsonl"
        cfg = tiny_loso_config(
            dataset=str(data), synth=None,
            model=ModelConfig(variant="full", channels=4, n_actions=2,
                              relation_channels=3, n_classes=2),
        )
        digests, checkpoints = [], []
        for encoding in ("nested", "base64"):
            if encoding == "nested":
                data.write_bytes(V1_SAMPLES.read_bytes())
            else:
                save_samples(megraph.landmarks.load_samples(V1_SAMPLES), data)
            first = json.loads(data.read_text().splitlines()[0])
            assert isinstance(first["frames"], list if encoding == "nested" else str)
            out = tmp_path / encoding
            runs = [run_loso(cfg, out_dir=out)]
            runs.append(evaluate_checkpoint(cfg, out / "checkpoints" / "fold_s01.json"))
            digests.append([
                hashlib.sha256(json.dumps(r.canonical()).encode()).hexdigest()
                for r in runs
            ])
            checkpoints.append({
                p.name: p.read_bytes() for p in (out / "checkpoints").iterdir()
            })
        assert digests[0] == digests[1]
        assert len(checkpoints[0]) == 3 and checkpoints[0] == checkpoints[1]

    def test_curve_floats_round_trip_exactly(self, tmp_path):
        out = tmp_path / "run"
        run_loso(tiny_loso_config(), out_dir=out)
        lines = (out / "curves.csv").read_text().splitlines()
        assert len(lines) > 1
        for line in lines[1:3]:
            fields = line.split(",")
            total = float(fields[-1])
            parts = [float(v) for v in fields[2:-1]]
            # total was written from the same floats; re-reading is exact
            assert total == float(repr(total))
            assert all(np.isfinite(parts))


def _run_files(root: Path) -> dict:
    """Every file under ``root`` by relative path, report.json without its
    wall time."""
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in root.rglob("*") if p.is_file()}
    report = json.loads(files.pop("report.json"))
    del report["wall_time"]
    return {**files, "report.json": report}


def _set_workers(monkeypatch, workers: int) -> None:
    """Make LOSO runs train their folds in ``workers`` processes."""
    monkeypatch.setattr(megraph.training, "_workers", lambda: workers)


def _patch_train_fold(monkeypatch, before):
    """Make ``train_fold`` call ``before(subject)`` first; forked workers
    inherit the patch."""
    real = megraph.training.train_fold

    def patched(*args, context, **kwargs):
        before(context.removeprefix("fold "))
        return real(*args, context=context, **kwargs)

    monkeypatch.setattr(megraph.training, "train_fold", patched)


class TestForkedFolds:
    """Folds trained in forked workers give what a serial run gives: the
    same files, errors and warnings, and no child left behind. With 3
    subjects, 2 workers run s01 in the caller and s02, s03 in one child;
    3 workers give each fold its own process."""

    def test_every_worker_count_writes_the_same_run_dir(self, monkeypatch, tmp_path):
        cfg = tiny_loso_config(synth=SynthSpec(n_subjects=5, samples_per_subject=3,
                                               n_classes=3, noise_sigma=1.0, seed=0))
        runs = []
        for workers in (1, 2, 3, 8):
            _set_workers(monkeypatch, workers)
            run_loso(cfg, out_dir=tmp_path / str(workers))
            runs.append(_run_files(tmp_path / str(workers)))
        assert len([n for n in runs[0] if n.startswith("checkpoints/")]) == 5
        assert runs[0] == runs[1] == runs[2] == runs[3]

    @pytest.mark.parametrize("error", [
        DivergenceError("fold s03: diverged at epoch 1, step 2: overflow"),
        LeakageError("held-out subject 's03' has samples in the training set"),
        ValueError("fold s03: training set is empty"),
        DegenerateFrameError(4, "s03"),
    ], ids=lambda error: type(error).__name__)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_fold_error_is_raised_unchanged(self, monkeypatch, error, workers):
        def before(subject):
            if subject == "s03":
                raise error

        _patch_train_fold(monkeypatch, before)
        _set_workers(monkeypatch, workers)
        with pytest.raises(type(error)) as info:
            run_loso(tiny_loso_config())
        assert type(info.value) is type(error)
        assert str(info.value) == str(error)
        # a child's error carries the child's traceback as a note
        notes = vars(info.value).pop("__notes__", [])
        assert vars(info.value) == vars(error)
        if workers == 1:
            assert notes == []
        else:
            assert len(notes) == 1 and notes[0].startswith("raised in the worker for")
            assert "in before\n" in notes[0] and str(error) in notes[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_first_failing_fold_wins(self, monkeypatch, workers):
        errors = {"s02": LeakageError("fold s02 first"), "s03": ValueError("fold s03")}

        def before(subject):
            if subject in errors:
                raise errors[subject]

        _patch_train_fold(monkeypatch, before)
        _set_workers(monkeypatch, workers)
        with pytest.raises(LeakageError) as info:
            run_loso(tiny_loso_config())
        assert str(info.value) == "fold s02 first"

    def test_a_killed_worker_raises_one_line_naming_its_folds(self, monkeypatch):
        parent = os.getpid()

        def before(subject):
            if subject == "s03" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        _patch_train_fold(monkeypatch, before)
        _set_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError) as info:
            run_loso(tiny_loso_config())
        assert str(info.value) == (
            "the worker for folds s02, s03 ended (signal 9) before sending its results"
        )

    def test_a_hung_worker_is_killed_and_named(self, monkeypatch):
        parent = os.getpid()

        def before(subject):
            if subject == "s03" and os.getpid() != parent:
                time.sleep(60)

        _patch_train_fold(monkeypatch, before)
        _set_workers(monkeypatch, 3)
        monkeypatch.setattr(megraph.training, "WORKER_GRACE_S", 1.0)
        t0 = time.perf_counter()
        with pytest.raises(ChildProcessError, match=(
            r"^the worker for folds s03 ended \(killed after \d+ s\) before sending "
            r"its results$"
        )):
            run_loso(tiny_loso_config())
        assert time.perf_counter() - t0 < 30

    def test_a_failing_caller_kills_and_reaps_its_workers(self, monkeypatch):
        parent = os.getpid()

        def before(subject):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError(f"fold {subject}: planted")

        _patch_train_fold(monkeypatch, before)
        _set_workers(monkeypatch, 3)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="^fold s01: planted$"):
            run_loso(tiny_loso_config())
        assert time.perf_counter() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("action, count", [("always", 6), ("default", 4)])
    def test_workers_warnings_reach_the_caller_in_fold_order(
        self, monkeypatch, action, count
    ):
        # each fold warns once in its own words and once in shared words;
        # under "default" the shared warning shows once per run
        def before(subject):
            warnings.warn(f"fold {subject} warns", RuntimeWarning)
            warnings.warn("relation weights are all zero; falling back to uniform",
                          RuntimeWarning)

        _patch_train_fold(monkeypatch, before)
        seen = []
        for workers in (1, 2, 3):
            _set_workers(monkeypatch, workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                run_loso(tiny_loso_config())
            seen.append([(str(w.message), w.category, w.filename, w.lineno)
                         for w in caught])
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) == count
        assert [m for m, *_ in seen[0] if m.startswith("fold")] == [
            "fold s01 warns", "fold s02 warns", "fold s03 warns"
        ]

    def test_a_warning_whose_source_cannot_be_pickled_still_arrives(self, monkeypatch):
        lock = threading.Lock()  # as a ResourceWarning's source may be

        def before(subject):
            warnings.warn(f"fold {subject} leaks", ResourceWarning, source=lock)

        _patch_train_fold(monkeypatch, before)
        _set_workers(monkeypatch, 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_loso(tiny_loso_config())
        assert [str(w.message) for w in caught] == [
            "fold s01 leaks", "fold s02 leaks", "fold s03 leaks"
        ]

    def test_the_caller_and_its_workers_run_one_blas_thread(self, monkeypatch):
        set_threads = megraph.training._blas_threads()
        before = set_threads(2)
        if before is None:
            pytest.skip("numpy's OpenBLAS cannot be asked here")
        two = set_threads(2)  # what OpenBLAS made of the request

        def before_fold(subject):  # a warning carries a child's count back
            warnings.warn(f"{subject} ran {set_threads(1)} BLAS threads", RuntimeWarning)

        _patch_train_fold(monkeypatch, before_fold)
        _set_workers(monkeypatch, 2)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_loso(tiny_loso_config())
            restored = set_threads(before)
        finally:
            set_threads(before)
        assert [str(w.message) for w in caught] == [
            f"s0{k} ran 1 BLAS threads" for k in (1, 2, 3)
        ]
        assert restored == two

    def test_without_openblas_the_workers_run_as_before(self, monkeypatch, tmp_path):
        def no_library(path):
            raise OSError(f"{path}: cannot open shared object file")

        megraph.training._blas_threads.cache_clear()
        monkeypatch.setattr(megraph.training.ctypes, "CDLL", no_library)
        try:
            assert megraph.training._blas_threads()(1) is None
            _set_workers(monkeypatch, 2)
            run_loso(tiny_loso_config(), out_dir=tmp_path / "2")
        finally:
            megraph.training._blas_threads.cache_clear()
        _set_workers(monkeypatch, 1)
        run_loso(tiny_loso_config(), out_dir=tmp_path / "1")
        assert _run_files(tmp_path / "2") == _run_files(tmp_path / "1")

    def test_no_fork_beside_other_threads(self, monkeypatch, tmp_path):
        def no_fork():
            raise AssertionError("forked beside another thread")

        _set_workers(monkeypatch, 3)
        run_loso(tiny_loso_config(), out_dir=tmp_path / "forked")
        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            run_loso(tiny_loso_config(), out_dir=tmp_path / "serial")
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _run_files(tmp_path / "serial") == _run_files(tmp_path / "forked")


SHARD_MODEL = ModelConfig(variant="full", channels=4, n_actions=2,
                          relation_channels=3, n_classes=3)


def _eval_inputs(tmp_path, text: str, state=None):
    """A config file reading ``text`` as its dataset, and a checkpoint of
    ``state`` (a seeded model's, when None)."""
    data, config, ckpt = (tmp_path / n for n in ("data.jsonl", "config.json", "c.json"))
    data.write_text(text, encoding="utf-8")
    save_config(ExperimentConfig(dataset=str(data), synth=None, model=SHARD_MODEL,
                                 seed=0), config)
    if state is None:
        state = ActionRelationNet(SHARD_MODEL, seed=3).params.state_dict()
    write_checkpoint(state, ckpt)
    return config, ckpt


def _shard_text(n_subjects=5, nested=True, blank_before=()):
    """JSONL of a 3-class synthetic set of 6 samples per subject, frames as
    nested lists or base64, with a blank line (a space, a tab and U+3000)
    before each sample index in ``blank_before`` and one at the end."""
    samples = synthesize_dataset(n_subjects=n_subjects, samples_per_subject=6,
                                 n_classes=3, seed=1)
    lines = []
    for i, (s, y, f) in enumerate(zip(samples.subjects.tolist(),
                                      samples.labels.tolist(), samples.frames)):
        if i in blank_before:
            lines.append(" \t\u3000")
        frames = f.tolist() if nested else encode_float64(f)
        lines.append(json.dumps({"subject": s, "label": y, "frames": frames}))
    return "\n".join(lines) + "\n\n"


class TestShardedEvaluate:
    """Scoring a dataset file in forked shares of its lines gives what one
    process gives. With EVAL_CHUNK 4, the 30 samples of ``_shard_text`` are 8
    chunks, the last of 2: 2 workers split them at sample 16, 3 at samples 8
    and 20, and 8 give each chunk its own process."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(megraph.training, "EVAL_CHUNK", 4)

    @staticmethod
    def _caller_loads(monkeypatch):
        """The sample count of each share the calling process loads."""
        real, parent, loads = megraph.training.load_samples, os.getpid(), []

        def counted(path, lines=None):
            if os.getpid() == parent:
                loads.append(None if lines is None else len(lines))
            return real(path, lines)

        monkeypatch.setattr(megraph.training, "load_samples", counted)
        return loads

    @pytest.mark.parametrize("text, caller_shares", [
        # blank lines before a share's first sample, at the start and the end
        (_shard_text(nested=False, blank_before=(0, 8, 16, 20)),
         {1: [30], 2: [16], 3: [8], 8: [4]}),
        # 18 samples as nested lists: 5 chunks, so 8 workers make 5 shares
        (_shard_text(n_subjects=3), {1: [18], 2: [8], 3: [4], 8: [4]}),
    ], ids=["base64-blank-lines", "nested-lists"])
    def test_every_worker_count_writes_the_same_run_dir(
        self, monkeypatch, tmp_path, text, caller_shares
    ):
        config, ckpt = _eval_inputs(tmp_path, text)
        loads = self._caller_loads(monkeypatch)
        runs = []
        for workers in (1, 2, 3, 8):
            _set_workers(monkeypatch, workers)
            out = tmp_path / str(workers)
            argv = ["evaluate", "--config", str(config), "--checkpoint", str(ckpt)]
            assert main(argv + ["--out", str(out)]) == 0
            runs.append(_run_files(out))
            assert loads == caller_shares[workers]
            loads.clear()
        assert runs[0] == runs[1] == runs[2] == runs[3]
        n = text.count('"subject"')
        assert len(json.loads(runs[0]["folds/eval.json"])["y_true"]) == n

    def test_a_pipe_is_scored_in_one_process(self, monkeypatch, tmp_path):
        config, ckpt = _eval_inputs(tmp_path, _shard_text())
        cfg = load_config(config)
        _set_workers(monkeypatch, 2)
        from_file = evaluate_checkpoint(cfg, ckpt)

        def no_fork():
            raise AssertionError("a pipe was cut into shares")

        monkeypatch.setattr(os, "fork", no_fork)
        read_end, write_end = os.pipe()

        def write():
            with os.fdopen(write_end, "wb") as fh:
                fh.write((tmp_path / "data.jsonl").read_bytes())

        writer = threading.Thread(target=write)
        writer.start()
        try:
            piped = evaluate_checkpoint(replace(cfg, dataset=f"/dev/fd/{read_end}"), ckpt)
        finally:
            writer.join(timeout=30)
            os.close(read_end)
        assert piped.folds == from_file.folds

    @staticmethod
    def _patch_child_load(monkeypatch, act):
        """Make a forked worker call ``act()`` before it loads its share."""
        real, parent = megraph.training.load_samples, os.getpid()

        def patched(path, lines=None):
            if os.getpid() != parent:
                act()
            return real(path, lines)

        monkeypatch.setattr(megraph.training, "load_samples", patched)

    def test_a_killed_worker_is_named_by_its_lines(self, monkeypatch, tmp_path):
        config, ckpt = _eval_inputs(tmp_path, _shard_text())
        self._patch_child_load(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        _set_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError) as info:
            evaluate_checkpoint(load_config(config), ckpt)
        assert str(info.value) == (
            "the worker for lines 17-30 ended (signal 9) before sending its results"
        )

    def test_a_hung_worker_is_killed_and_named_by_its_lines(self, monkeypatch, tmp_path):
        config, ckpt = _eval_inputs(tmp_path, _shard_text())
        self._patch_child_load(monkeypatch, lambda: time.sleep(60))
        _set_workers(monkeypatch, 3)
        monkeypatch.setattr(megraph.training, "WORKER_GRACE_S", 1.0)
        t0 = time.perf_counter()
        with pytest.raises(ChildProcessError, match=(
            r"^the worker for lines 9-20 ended \(killed after \d+ s\) before "
            r"sending its results$"
        )):
            evaluate_checkpoint(load_config(config), ckpt)
        assert time.perf_counter() - t0 < 30

    @pytest.mark.parametrize("action, count", [("always", 60), ("default", 31)])
    def test_workers_warnings_reach_the_caller_in_file_order(
        self, monkeypatch, tmp_path, action, count
    ):
        # a dead relation stage warns once per sample in the same words, and
        # each sample also warns in its own
        state = ActionRelationNet(SHARD_MODEL, seed=3).params.state_dict()
        state["relation.mix.w"][:] = 0.0
        state["relation.mix.b"][:] = 0.0
        config, ckpt = _eval_inputs(tmp_path, _shard_text(), state)
        real = megraph.training.sample_graph

        def announced(samples, magnification):  # called once per chunk
            for x in samples.frames[:, 0, 0, 0]:
                warnings.warn(f"scoring the sample at {x!r}", RuntimeWarning)
            return real(samples, magnification)

        monkeypatch.setattr(megraph.training, "sample_graph", announced)
        seen = []
        for workers in (1, 2, 3):
            _set_workers(monkeypatch, workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                evaluate_checkpoint(load_config(config), ckpt)
            seen.append([(str(w.message), w.category, w.filename, w.lineno)
                         for w in caught])
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) == count
        frames = load_samples(tmp_path / "data.jsonl").frames
        assert [m for m, *_ in seen[0] if m.startswith("scoring")] == [
            f"scoring the sample at {x!r}" for x in frames[:, 0, 0, 0]
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_whole_set_checks_keep_their_messages(self, monkeypatch, tmp_path, workers):
        _set_workers(monkeypatch, workers)
        records = [json.loads(line) for line in _shard_text().splitlines() if line]
        records[2]["label"], records[25]["label"] = 5, 7
        config, ckpt = _eval_inputs(
            tmp_path, "".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError) as info:
            evaluate_checkpoint(load_config(config), ckpt)
        assert str(info.value) == (
            "dataset has label 7 but the model is configured for 3 classes"
        )
        config, ckpt = _eval_inputs(tmp_path, "\n \n")
        with pytest.raises(ValueError) as info:
            evaluate_checkpoint(load_config(config), ckpt)
        assert str(info.value) == "dataset is empty"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("fault, message", [
        ("label", "dataset has label 9 but the model is configured for 3 classes"),
        ("json", "data.jsonl:26: invalid JSON"),
    ])
    def test_a_scoring_error_waits_for_every_shares_loading(
        self, monkeypatch, tmp_path, workers, fault, message
    ):
        # sample 2 has an onset without extent, which only scoring finds
        records = [json.loads(line) for line in _shard_text().splitlines() if line]
        records[2]["frames"] = [[[1.0, 1.0]] * 68] * 3
        lines = [json.dumps(r) for r in records]
        if fault == "label":
            records[25]["label"] = 9
            lines[25] = json.dumps(records[25])
        else:
            lines[25] = "{not json"
        config, ckpt = _eval_inputs(tmp_path, "\n".join(lines) + "\n")
        _set_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match=message):
            evaluate_checkpoint(load_config(config), ckpt)
        records[25] = json.loads(_shard_text().splitlines()[25])
        config, ckpt = _eval_inputs(
            tmp_path, "".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DegenerateFrameError):
            evaluate_checkpoint(load_config(config), ckpt)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_workers_data_error_is_raised_by_a_serial_rescoring(
        self, monkeypatch, tmp_path, workers
    ):
        # sample 26, on line 27, has an onset without extent: the last share's
        records = [json.loads(line) for line in _shard_text().splitlines() if line]
        records[26]["frames"] = [[[1.0, 1.0]] * 68] * 3
        config, ckpt = _eval_inputs(
            tmp_path, "".join(json.dumps(r) + "\n" for r in records))
        _set_workers(monkeypatch, 1)
        with pytest.raises(DegenerateFrameError) as serial:
            evaluate_checkpoint(load_config(config), ckpt)
        loads = self._caller_loads(monkeypatch)
        _set_workers(monkeypatch, workers)
        with pytest.raises(DegenerateFrameError) as info:
            evaluate_checkpoint(load_config(config), ckpt)
        assert str(info.value) == str(serial.value)
        assert not hasattr(info.value, "__notes__")  # raised in this process
        assert loads == [{2: 16, 3: 8}[workers], 30]  # its share, then all lines


class TestRunTraining:
    def test_resubstitution_report_and_checkpoint(self, tmp_path):
        out = tmp_path / "train"
        cfg = tiny_loso_config()
        run = run_training(cfg, out_dir=out)
        assert run.fold_subjects == ["(all)"]
        assert len(run.folds[0].y_true) == 9
        state = read_checkpoint(out / "checkpoints" / "final.json")
        assert [p.name for p in (out / "folds").iterdir()] == ["all.json"]
        evaluate_checkpoint(cfg, out / "checkpoints" / "final.json", out_dir=out / "eval")
        assert [p.name for p in (out / "eval" / "folds").iterdir()] == ["eval.json"]
        model = ActionRelationNet(cfg.model, seed=0)
        model.params.load_state_dict(state)
        y_true, y_pred, _ = evaluate(
            model, prepare_samples(cfg), cfg.magnification
        )
        got = float(np.mean(np.asarray(y_true) == np.asarray(y_pred)))
        assert got == run.pooled_accuracy

    def test_evaluate_checkpoint_names_the_checkpoint_on_a_mismatch(self, tmp_path):
        cfg = tiny_loso_config()
        wider = ActionRelationNet(replace(cfg.model, channels=5), seed=0)
        path = tmp_path / "wider.json"
        write_checkpoint(wider.params.state_dict(), path)
        with pytest.raises(ValueError) as info:
            evaluate_checkpoint(cfg, path)
        assert str(info.value).startswith(
            f"{path}: shape mismatch for 'backbone.l1.gc.w': checkpoint (2, 5)"
        )
        write_checkpoint({"head.w": np.zeros((4, 3))}, path)
        with pytest.raises(ValueError) as info:
            evaluate_checkpoint(cfg, path)
        assert str(info.value).startswith(f"{path}: parameter name mismatch: missing=")

    def test_evaluate_checkpoint_matches(self, tmp_path):
        out = tmp_path / "train"
        cfg = tiny_loso_config()
        run = run_training(cfg, out_dir=out)
        scored = evaluate_checkpoint(cfg, out / "checkpoints" / "final.json")
        assert scored.pooled_accuracy == run.pooled_accuracy

    def test_full_model_training_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma and its submodules (over 1 MiB resident),
        # so no step of a full-model run, center update included, may call it
        path = tmp_path / "config.json"
        save_config(tiny_loso_config(), path)
        script = (
            "import sys\n"
            "from megraph.config import load_config\n"
            "from megraph.training import run_training\n"
            f"run_training(load_config({str(path)!r}))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(megraph.training.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout == "False\n"


class TestAblation:
    def test_rows_and_outputs(self, tmp_path):
        out = tmp_path / "ablate"
        cfg = tiny_loso_config(
            optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=2,
                                      batch_size=4)
        )
        report = run_ablation(cfg, out_dir=out)
        assert [row["name"] for row in report.modules] == list(MODULE_ROWS)
        assert [row["name"] for row in report.losses] == list(LOSS_ROWS)
        assert report.fold_subjects == ["s01", "s02", "s03"]
        for row in report.modules + report.losses:
            assert 0.0 <= row["accuracy"] <= 1.0
        # loss rows: each removed term is zeroed, the rest keep their value
        by_name = {row["name"]: row["loss_weights"] for row in report.losses}
        assert by_name["no_feature_center"]["feature_center"] == 0.0
        assert by_name["no_weight_center"]["weight_center"] == 0.0
        assert by_name["no_balance"]["balance"] == 0.0
        assert by_name["full"]["feature_center"] > 0.0
        payload = json.loads((out / "ablation.json").read_text())
        assert len(payload["modules"]) == 3
        assert len(payload["losses"]) == 4
        assert (out / "ablation.txt").read_text().startswith("module ablation")

    METRICS = ("accuracy", "f1_macro")

    @staticmethod
    def _counted_runs(monkeypatch):
        """The configuration of each ``run_loso`` call the ablation makes."""
        configs = []
        run_loso = megraph.training.run_loso

        def counting_run_loso(cfg, *args, **kwargs):
            configs.append(cfg)
            return run_loso(cfg, *args, **kwargs)

        monkeypatch.setattr(megraph.training, "run_loso", counting_run_loso)
        return configs

    def test_full_configuration_trains_once(self, monkeypatch):
        # the module row "full" and the loss row "full" are one configuration
        configs = self._counted_runs(monkeypatch)
        cfg = tiny_loso_config(
            optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=1, batch_size=4)
        )
        report = run_ablation(cfg)
        assert len(configs) == len(MODULE_ROWS) + len(LOSS_ROWS) - 1 == 6
        assert len(set(configs)) == 6
        module_full, loss_full = report.modules[-1], report.losses[0]
        assert module_full["name"] == loss_full["name"] == "full"
        assert [module_full[m] for m in self.METRICS] == [loss_full[m] for m in self.METRICS]

    def test_equal_configurations_share_one_run(self, monkeypatch):
        # with feature_center already 0, "no_feature_center" is the "full" row
        configs = self._counted_runs(monkeypatch)
        cfg = tiny_loso_config(
            loss_weights=LossWeights(feature_center=0.0),
            optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=1, batch_size=4),
        )
        report = run_ablation(cfg)
        assert len(configs) == len(set(configs)) == 5
        rows = {row["name"]: row for row in report.losses}
        assert ([rows["no_feature_center"][m] for m in self.METRICS]
                == [rows["full"][m] for m in self.METRICS])

    def test_rows_on_different_splits_raise(self, monkeypatch):
        configs = []

        def run_loso(cfg, out_dir=None):
            configs.append(cfg)
            subjects = ["s01", "s02", "s03"] if len(configs) == 1 else ["s01", "s02"]
            return SimpleNamespace(fold_subjects=subjects, pooled_accuracy=0.5,
                                   f1_macro=0.5)

        monkeypatch.setattr(megraph.training, "run_loso", run_loso)
        with pytest.raises(InvariantError, match="^ablation rows saw different LOSO splits$"):
            run_ablation(tiny_loso_config())
        assert len(configs) == 2

    def test_format_ablation_text(self):
        report = AblationReport(
            config={},
            modules=[{"name": "backbone", "variant": "backbone", "accuracy": 0.5,
                      "f1_macro": 0.25},
                     {"name": "full", "variant": "full", "accuracy": 1.0,
                      "f1_macro": 0.123456}],
            losses=[{"name": "no_feature_center", "loss_weights": {},
                     "accuracy": 0.0, "f1_macro": 2 / 3}],
            fold_subjects=["s01", "s02"],
            wall_time=1.0,
        )
        assert format_ablation(report) == (
            "module ablation\n"
            "  row                       acc       f1\n"
            "  backbone               0.5000   0.2500\n"
            "  full                   1.0000   0.1235\n"
            "\n"
            "loss ablation\n"
            "  row                       acc       f1\n"
            "  no_feature_center      0.0000   0.6667\n"
        )


def _no_libc(name):
    raise OSError("no C library")


class TestKeepHeap:
    # Under glibc's dynamic thresholds the second call takes 700-1,400
    # minor faults; with the heap kept, 0-2. The bound leaves room for
    # pymalloc arenas, which mmap on their own.
    MAX_FAULTS = 250

    def test_second_training_call_reuses_the_heap(self):
        if not megraph.autodiff._keep_heap():
            pytest.skip("mallopt is not available")
        cfg = ExperimentConfig(
            synth=SynthSpec(n_subjects=3, samples_per_subject=16, n_classes=3,
                            seed=0),
            model=ModelConfig(variant="backbone", channels=16, n_classes=3),
            optimizer=OptimizerConfig(epochs=2, batch_size=16),
            seed=0,
        )
        features, labels = fold_inputs(cfg)

        def train():
            train_fold(features, labels, cfg, np.random.default_rng(0),
                       np.random.default_rng(1))

        train()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < self.MAX_FAULTS

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["no_libc", "no_mallopt"])
    def test_missing_mallopt_is_a_no_op(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert megraph.autodiff._keep_heap() is False

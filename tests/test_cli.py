"""Command-line interface: exit codes, artifacts, and error reporting."""

import base64
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import megraph.training
from megraph.checks import SMALL_MODEL
from megraph.cli import main
from megraph.config import (
    AugmentConfig,
    ExperimentConfig,
    OptimizerConfig,
    SynthSpec,
    dumps,
    load_config,
    save_config,
)
from megraph.graph import COMPONENTS
from megraph.landmarks import load_samples, save_samples, synthesize_dataset
from megraph.losses import LossWeights
from megraph.model import ActionRelationNet, ModelConfig
from megraph.params import read_checkpoint, write_checkpoint

SEED9_FIXTURE = Path(__file__).parent / "data" / "checkpoint_seed9.json"
GRAPH_DUMP = Path(__file__).parent / "data" / "graph_dump.json"
GOOD_RECORD = {
    "subject": "s01",
    "label": 0,
    "frames": synthesize_dataset(n_subjects=1, samples_per_subject=1).frames[0].tolist(),
}


def _samples(*labels):
    """JSONL text: one valid record per label, with that label."""
    return "".join(json.dumps({**GOOD_RECORD, "label": y}) + "\n" for y in labels)


CHECKPOINT_V2 = '{"format": "megraph-params-v2", "params": %s}'


def _b64(*values) -> str:
    """base64 of little-endian float64 values, as a v2 checkpoint holds them."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()


_FRAME_VALUES = np.ravel(GOOD_RECORD["frames"]).tolist()


# command ({input} is the bad file, {data} a config reading it as the
# dataset), the bad file's text, and the one-line message it must produce
BAD_INPUTS = [
    pytest.param(
        ["train", "--config", "{input}"],
        '{"optimizer": {"lr": NaN, "epochs": 1, "batch_size": 64},'
        ' "synth": {"n_subjects": 2, "samples_per_subject": 3}}',
        "config.optimizer.lr: expected a finite number",
        id="config-nan",
    ),
    pytest.param(
        ["config", "show", "--config", "{input}"],
        '{"magnification": Infinity}',
        "config.magnification: expected a finite number",
        id="config-infinity",
    ),
    pytest.param(
        ["config", "show", "--config", "{input}"],
        '{"optimizer": {"lr": 0.1,',
        "{input}: invalid JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 26 (char 25)",
        id="config-truncated",
    ),
    # fields that older configs carried and the program no longer has
    pytest.param(
        ["loso", "--config", "{input}"],
        '{"center_mode": "batch", "center_rate": 0.5}',
        "unknown config fields in config: ['center_mode']",
        id="config-center-mode",
    ),
    pytest.param(
        ["train", "--config", "{input}"],
        '{"f1_average": "macro"}',
        "unknown config fields in config: ['f1_average']",
        id="config-f1-average",
    ),
    pytest.param(
        ["config", "show", "--config", "{input}"],
        '{"model": {"variant": "full", "normalize_weights": true}}',
        "unknown config fields in config.model: ['normalize_weights']",
        id="config-normalize-weights",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        '{"format": "megraph-params-v2", "params": {"head.w": {"shape": [1',
        "{input}: invalid JSON: Expecting ',' delimiter: line 1 column 66 (char 65)",
        id="checkpoint-truncated",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        "[]",
        "not a parameter checkpoint: {input}",
        id="checkpoint-not-an-object",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        '{"format": "megraph-params-v1", "params": {"head.b": {"shape": [1], "values": [0.5]}}}',
        "not a parameter checkpoint: {input} (format 'megraph-params-v1')",
        id="checkpoint-v1",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        '{"format": "megraph-params-v2"}',
        "{input}: checkpoint has no 'params' object",
        id="checkpoint-without-params",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        CHECKPOINT_V2 % '{"head.w": {"values": "%s"}}' % _b64(0.5),
        "{input}: checkpoint entry 'head.w' needs 'shape' and 'values'",
        id="checkpoint-entry-without-shape",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        # the name is quoted as a Python string, so the message stays one line
        CHECKPOINT_V2 % '{"a\\nb": {"values": "%s"}}' % _b64(0.5),
        "{input}: checkpoint entry 'a\\nb' needs 'shape' and 'values'",
        id="checkpoint-entry-name-with-a-newline",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        CHECKPOINT_V2 % '{"head.b": {"shape": [1], "values": "%s"}}' % _b64("nan"),
        "{input}: checkpoint entry 'head.b': values must be finite",
        id="checkpoint-nan",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        # lenient decoding would drop the "!" and read 1.0
        CHECKPOINT_V2 % '{"head.b": {"shape": [1], "values": "AAAA!AAAA8D8="}}',
        "{input}: checkpoint entry 'head.b': values must be a strict base64 string",
        id="checkpoint-v2-not-base64",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        CHECKPOINT_V2 % '{"head.b": {"shape": [2], "values": "%s"}}' % _b64(1.0),
        "{input}: checkpoint entry 'head.b': 8 bytes do not fill float64 shape [2]",
        id="checkpoint-v2-wrong-byte-count",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        CHECKPOINT_V2 % '{"head.b": {"shape": [2], "values": "%s"}}' % _b64(0.5, "nan"),
        "{input}: checkpoint entry 'head.b': values must be finite",
        id="checkpoint-v2-nan",
    ),
    # no values fill a shape with a zero, but numpy cannot hold this shape
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        CHECKPOINT_V2 % '{"head.b": {"shape": [0, %d, %d, 4], "values": ""}}'
        % (2**31, 2**31),
        "{input}: checkpoint entry 'head.b': numpy cannot hold shape "
        f"[0, {2**31}, {2**31}, 4]",
        id="checkpoint-v2-shape-too-large",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        CHECKPOINT_V2 % '{"head.b": {"shape": [1], "values": [0.5]}}',
        "{input}: checkpoint entry 'head.b': values must be a strict base64 string",
        id="checkpoint-v2-list",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        CHECKPOINT_V2 % '{"head.w": {"shape": [1], "values": "%s"}}' % _b64(0.5),
        "{input}: parameter name mismatch: missing=%s extra=[]"
        % sorted(set(dict(ActionRelationNet(ModelConfig()).params.items())) - {"head.w"}),
        id="checkpoint-name-mismatch",
    ),
    pytest.param(
        ["config", "show", "--config", "{input}"],
        b'{"seed": 1, "dataset": "\xff"}',
        "{input}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        "position 24: invalid start byte",
        id="config-not-utf8",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        (CHECKPOINT_V2 % "{}").encode() + b"\xff",
        "{input}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        "position 45: invalid start byte",
        id="checkpoint-not-utf8",
    ),
    pytest.param(
        ["train", "--config", "{data}"],
        _samples(0).encode() + b'{"subject": "\xff"}\n',
        "{input}:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
        "position 13: invalid start byte",
        id="samples-not-utf8",
    ),
    pytest.param(
        ["train", "--config", "{data}"],
        _samples(0) + json.dumps({**GOOD_RECORD, "frames": [[[10**400, 0]] * 68] * 3}),
        "{input}:2: frames: a value is too large for float64",
        id="samples-huge-integer",
    ),
    pytest.param(
        ["train", "--config", "{data}"],
        _samples(0) + "[1, 2]\n",
        "{input}:2: expected a JSON object, got list",
        id="samples-not-an-object",
    ),
    *(
        pytest.param(
            ["train", "--config", "{data}"],
            _samples(0) + json.dumps({**GOOD_RECORD, "frames": [[[x, 0.5]] * 68] * 3}),
            "{input}:2: frames must be nested lists of numbers",
            id=f"samples-{kind}-coordinate",
        )
        for kind, x in (("string", "1.5"), ("bool", True))
    ),
    pytest.param(
        ["train", "--config", "{data}"],
        # lenient decoding would drop the newline and read the same bytes
        _samples(0) + json.dumps({**GOOD_RECORD, "frames": "\n" + _b64(*_FRAME_VALUES)}),
        "{input}:2: frames: values must be a strict base64 string",
        id="samples-frames-not-base64",
    ),
    pytest.param(
        ["train", "--config", "{data}"],
        _samples(0) + json.dumps({**GOOD_RECORD, "frames": _b64(*_FRAME_VALUES[1:])}),
        "{input}:2: frames: 3256 bytes do not fill float64 shape (3, 68, 2)",
        id="samples-frames-wrong-byte-count",
    ),
    pytest.param(
        ["train", "--config", "{data}"],
        _samples(0, 1.7),
        "{input}:2: label must be an integer, got 1.7",
        id="samples-float-label",
    ),
    pytest.param(
        ["train", "--config", "{data}"],
        _samples(True),
        "{input}:1: label must be an integer, got true",
        id="samples-bool-label",
    ),
    *(
        pytest.param(
            ["train", "--config", "{data}"],
            json.dumps({**GOOD_RECORD, "subject": subject}) + "\n",
            f"{{input}}:1: subject must be a non-empty string, got {shown}",
            id=f"samples-subject-{shown}",
        )
        for subject, shown in (
            (3, "3"), (None, "null"), ("", '""'), (["s01"], '["s01"]')
        )
    ),
    pytest.param(
        ["config", "show", "--config", "{input}"],
        "[" * 100_000 + "]" * 100_000,
        "{input}: invalid JSON: maximum recursion depth exceeded while decoding "
        "a JSON array from a unicode string",
        id="config-too-deep",
    ),
    pytest.param(
        ["evaluate", "--checkpoint", "{input}"],
        '{"format": "megraph-params-v2", "params": ' + "[" * 100_000,
        "{input}: invalid JSON: maximum recursion depth exceeded while decoding "
        "a JSON array from a unicode string",
        id="checkpoint-too-deep",
    ),
]


@pytest.fixture
def tiny_config_path(tmp_path):
    cfg = ExperimentConfig(
        synth=SynthSpec(n_subjects=3, samples_per_subject=3, n_classes=3,
                        noise_sigma=1.0, seed=0),
        model=ModelConfig(variant="full", channels=4, n_actions=2,
                          relation_channels=3, n_classes=3),
        optimizer=OptimizerConfig(lr=0.05, momentum=0.9, epochs=2,
                                  batch_size=4),
        seed=0,
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return path


class TestIntrospectionCommands:
    def test_graph_dump(self, capsys):
        assert main(["graph", "dump"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_nodes"] == 31
        assert len(payload["components"]["eyebrow"]) == 10
        assert len(payload["components"]["nose"]) == 9
        assert len(payload["components"]["mouth"]) == 12
        assert [21, 27] in payload["bridges"]
        assert len(payload["degrees"]) == 31

    def test_graph_dump_is_the_fixed_layout_byte_for_byte(self, capsys):
        assert main(["graph", "dump"]) == 0
        assert capsys.readouterr().out == GRAPH_DUMP.read_text()

    def test_graph_dump_writes_file(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["graph", "dump", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "graph.json").read_text())["n_nodes"] == 31

    def test_model_inspect(self, tiny_config_path, capsys):
        code = main(["model", "inspect", "--config", str(tiny_config_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["variant"] == "full"
        shapes = payload["parameters"]
        assert shapes["backbone.l1.gc.w"] == [2, 4]
        assert shapes["head.w"] == [4, 3]
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert payload["n_parameters"] == total

    def test_config_show_applies_seed_override(self, tiny_config_path, capsys):
        code = main(
            ["config", "show", "--config", str(tiny_config_path), "--seed", "77"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 77


class TestDataCommands:
    def test_synth_data_writes_loadable_jsonl(self, tmp_path, capsys):
        out = tmp_path / "data"
        cfg = ExperimentConfig(
            synth=SynthSpec(n_subjects=2, samples_per_subject=2, n_classes=2)
        )
        path = tmp_path / "c.json"
        save_config(cfg, path)
        code = main(["synth-data", "--config", str(path), "--out", str(out)])
        assert code == 0
        samples = load_samples(out / "dataset.jsonl")
        assert len(samples) == 4
        assert "wrote 4 samples" in capsys.readouterr().out
        lines = (out / "dataset.jsonl").read_text().splitlines()
        assert [json.loads(line)["frames"] for line in lines] == [
            _b64(*f.ravel()) for f in samples.frames
        ]


class TestRunCommands:
    def test_train_then_evaluate_checkpoint(
        self, tiny_config_path, tmp_path, capsys
    ):
        out = tmp_path / "run"
        code = main(
            ["train", "--config", str(tiny_config_path), "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "pooled accuracy" in text
        ckpt = out / "checkpoints" / "final.json"
        assert ckpt.is_file()
        code = main(
            [
                "evaluate",
                "--config", str(tiny_config_path),
                "--checkpoint", str(ckpt),
            ]
        )
        assert code == 0
        assert "pooled accuracy" in capsys.readouterr().out

    def test_evaluate_out_names_the_run_directory(
        self, tiny_config_path, tmp_path, capsys
    ):
        train, scored = tmp_path / "train", tmp_path / "eval"
        assert main(["train", "--config", str(tiny_config_path), "--out", str(train)]) == 0
        assert capsys.readouterr().out.endswith(f"artifacts written to {train}\n")
        ckpt = train / "checkpoints" / "final.json"
        argv = ["evaluate", "--config", str(tiny_config_path), "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        summary = capsys.readouterr().out
        assert main(argv + ["--out", str(scored)]) == 0
        assert capsys.readouterr().out == summary + f"artifacts written to {scored}\n"
        assert (scored / "report.txt").read_text() == summary

    def test_evaluate_reports_a_bad_checkpoint_before_a_bad_dataset(
        self, tmp_path, capsys
    ):
        # the model is loaded before the dataset's shares are read
        data, config, ckpt = (tmp_path / n for n in ("d.jsonl", "c.json", "k.json"))
        data.write_text(_samples(0) + "{not json\n")
        save_config(ExperimentConfig(dataset=str(data), synth=None), config)
        ckpt.write_text('{"format": "megraph-params-v2", "params": {')
        argv = ["evaluate", "--config", str(config), "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: invalid JSON")
        write_checkpoint(ActionRelationNet(ModelConfig()).params.state_dict(), ckpt)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}:2: invalid JSON")

    @pytest.mark.parametrize("split, parts", [
        ("actions.gc.w", [f"actions.{comp}.gc.w" for comp in COMPONENTS]),
        ("backbone.l2.tc.w", [f"backbone.l2.tc.w{k}" for k in range(3)]),
    ], ids=["components", "taps"])
    def test_evaluate_rejects_a_stacked_parameter_split_into_slices(
        self, split, parts, tmp_path, capsys
    ):
        # the per-component and per-tap names of older releases are not
        # stacked on load: the name check names the file, the stacked name as
        # missing and the slices as extra
        path = tmp_path / "c.json"
        save_config(ExperimentConfig(
            synth=SynthSpec(n_subjects=2, samples_per_subject=3, n_classes=3),
            model=SMALL_MODEL,
        ), path)
        state = read_checkpoint(SEED9_FIXTURE)
        state.update(zip(parts, state.pop(split)))
        ckpt = tmp_path / "slices.json"
        write_checkpoint(state, ckpt)
        argv = ["evaluate", "--config", str(path), "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: parameter name mismatch: missing=['{split}'] "
            f"extra={sorted(parts)}\n"
        )

    def test_evaluate_names_a_stacked_tap_weight_with_a_missing_tap(
        self, tmp_path, capsys
    ):
        # tc.w0 and tc.w1 without tc.w2 do not make backbone.l1.tc.w
        path = tmp_path / "c.json"
        save_config(ExperimentConfig(
            synth=SynthSpec(n_subjects=2, samples_per_subject=3, n_classes=3),
            model=SMALL_MODEL,
        ), path)
        state = read_checkpoint(SEED9_FIXTURE)
        taps = state.pop("backbone.l1.tc.w")
        state.update({"backbone.l1.tc.w0": taps[0], "backbone.l1.tc.w1": taps[1]})
        ckpt = tmp_path / "two.json"
        write_checkpoint(state, ckpt)
        argv = ["evaluate", "--config", str(path), "--checkpoint", str(ckpt)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {ckpt}: parameter name mismatch: missing=['backbone.l1.tc.w'] "
            "extra=['backbone.l1.tc.w0', 'backbone.l1.tc.w1']\n"
        )

    def test_loso_writes_run_dir(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "loso"
        code = main(
            ["loso", "--config", str(tiny_config_path), "--out", str(out)]
        )
        assert code == 0
        assert (out / "report.json").is_file()
        assert (out / "curves.csv").is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["fold_subjects"] == ["s01", "s02", "s03"]

    def test_ablate_emits_module_and_loss_rows(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            synth=SynthSpec(n_subjects=2, samples_per_subject=2, n_classes=2,
                            noise_sigma=1.0, seed=0),
            model=ModelConfig(variant="full", channels=4, n_actions=2,
                              relation_channels=3, n_classes=2),
            optimizer=OptimizerConfig(lr=0.05, epochs=1, batch_size=4),
        )
        path = tmp_path / "c.json"
        save_config(cfg, path)
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(path), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert [r["name"] for r in payload["modules"]] == [
            "backbone", "actions", "full",
        ]
        assert [r["name"] for r in payload["losses"]] == [
            "full", "no_feature_center", "no_weight_center", "no_balance",
        ]

    def test_gradcheck_passes_and_writes_log(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = main(["gradcheck", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0, text
        assert "checks passed" in text
        assert (out / "gradcheck.txt").is_file()


class TestErrorPaths:
    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"not_a_field": 1}')
        assert main(["config", "show", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["loso", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg = ExperimentConfig(dataset=str(tmp_path / "absent.jsonl"), synth=None)
        save_config(cfg, cfg_path)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_foreign_checkpoint_exits_2(self, tiny_config_path, tmp_path, capsys):
        bad = tmp_path / "bad_ckpt.json"
        bad.write_text('{"format": "other", "params": {}}')
        code = main(
            [
                "evaluate",
                "--config", str(tiny_config_path),
                "--checkpoint", str(bad),
            ]
        )
        assert code == 2
        assert "not a parameter checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, where",
        [
            ({"optimizer": {"epochs": "ten"}}, "config.optimizer.epochs"),
            ({"optimizer": {"learning_rate": 0.5}}, "config.optimizer"),
            ({"optimizer": {"epochs": True}}, "config.optimizer.epochs"),
        ],
    )
    def test_mistyped_or_unknown_nested_config_exits_2(
        self, tmp_path, capsys, payload, where
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["config", "show", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and where in err

    @pytest.mark.parametrize("argv, text, message", BAD_INPUTS)
    def test_bad_input_exits_2_with_one_line(
        self, tmp_path, capsys, argv, text, message
    ):
        bad = tmp_path / "input"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"dataset": str(bad), "synth": None}))
        paths = {"input": str(bad), "data": str(data)}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(**paths)}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("subject", ["../config", "a/b", "a\\b", "a\0b", ".", ".."])
    def test_a_subject_that_names_a_path_exits_2_before_any_output(
        self, tmp_path, capsys, subject
    ):
        data = tmp_path / "data.jsonl"
        data.write_text(_samples(0) + json.dumps({**GOOD_RECORD, "subject": subject}))
        config = tmp_path / "c.json"
        save_config(ExperimentConfig(dataset=str(data), synth=None), config)
        out = tmp_path / "run"
        assert main(["loso", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {data}:2: subject must not name a path, got {json.dumps(subject)}\n"
        )
        assert not out.exists()

    def test_a_subject_too_long_for_a_file_name_exits_2_before_any_output(
        self, tmp_path, capsys
    ):
        subject = "\u00e9" * 116 + "a"  # 117 characters, 233 UTF-8 bytes
        data = tmp_path / "data.jsonl"
        data.write_text(_samples(0) + json.dumps({**GOOD_RECORD, "subject": subject}))
        config = tmp_path / "c.json"
        save_config(ExperimentConfig(dataset=str(data), synth=None), config)
        out = tmp_path / "run"
        assert main(["loso", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {data}:2: subject is 233 UTF-8 bytes, more than the 232 its "
            "run files' names can hold\n"
        )
        assert not out.exists()

    def test_the_longest_subject_writes_its_fold_files(self, tmp_path, capsys):
        subject = "\u00e9" * 116  # 232 UTF-8 bytes
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=2, n_classes=2)
        names = {"s01": "s01", "s02": subject}
        data = tmp_path / "data.jsonl"
        data.write_text("".join(
            json.dumps({"subject": names[s], "label": int(y), "frames": f.tolist()}) + "\n"
            for s, y, f in zip(samples.subjects, samples.labels, samples.frames)
        ))
        config = tmp_path / "c.json"
        save_config(
            ExperimentConfig(
                dataset=str(data), synth=None, model=SMALL_MODEL,
                optimizer=OptimizerConfig(epochs=1, batch_size=4),
            ),
            config,
        )
        out = tmp_path / "run"
        assert main(["loso", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "checkpoints" / f"fold_{subject}.json").is_file()
        assert (out / "folds" / f"{subject}.json").is_file()
        assert not list(out.rglob("*.tmp"))

    def test_a_killed_fold_worker_exits_2_naming_its_folds(
        self, tiny_config_path, monkeypatch, capsys
    ):
        parent = os.getpid()
        real = megraph.training.train_fold

        def train_fold(*args, context, **kwargs):
            if context == "fold s03" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, context=context, **kwargs)

        monkeypatch.setattr(megraph.training, "train_fold", train_fold)
        monkeypatch.setattr(megraph.training, "_workers", lambda: 3)
        assert main(["loso", "--config", str(tiny_config_path)]) == 2
        assert capsys.readouterr().err == (
            "error: the worker for folds s03 ended (signal 9) before sending "
            "its results\n"
        )

    @pytest.mark.parametrize("subject", ["s02", "s03"])
    def test_loso_on_an_unusable_sample_exits_2(
        self, tiny_config_path, unusable_samples, tmp_path, capsys, subject
    ):
        samples, first = unusable_samples
        # keep only the bad sample under test
        other = "s03" if subject == "s02" else "s02"
        samples = samples[np.arange(len(samples)) != first[other]]
        data = tmp_path / "bad.jsonl"
        save_samples(samples, data)
        cfg = replace(load_config(tiny_config_path), dataset=str(data), synth=None)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["loso", "--config", str(path)]) == 2
        assert f"sample '{subject}'" in capsys.readouterr().err


COMMANDS = ["train", "evaluate", "loso", "ablate", "gradcheck", "synth-data",
            "config show", "graph dump", "model inspect"]


def _exit_code(command: str, *flags: str) -> int:
    """The exit code of ``megraph <command> <flags>``, whether the command
    returns it or argparse exits; evaluate gets the checkpoint it needs."""
    argv = command.split() + list(flags)
    if command == "evaluate":
        argv += ["--checkpoint", str(SEED9_FIXTURE)]
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestEntryPoint:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main(command.split() + ["--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        # graph dump's layout is fixed: it reads no config and no seed
        flags = "[--out DIR]" if command == "graph dump" else "[--config PATH]"
        assert text.startswith(f"usage: megraph {command} [-h] {flags}")
        # evaluate alone adds a flag to the options every command shares
        assert ("--checkpoint PATH" in text) == (command == "evaluate")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("text", [None, "{broken"], ids=["missing", "malformed"])
    def test_a_bad_config_never_exits_0(self, command, text, tmp_path, capsys):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert _exit_code(command, "--config", str(path)) == 2
        err = capsys.readouterr().err
        if command == "graph dump":
            assert "unrecognized arguments: --config" in err
        else:
            assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_negative_seed_exits_2_naming_the_field(self, command, capsys):
        assert _exit_code(command, "--seed", "-1") == 2
        err = capsys.readouterr().err
        if command == "graph dump":
            assert "unrecognized arguments: --seed" in err
        else:
            assert err == "error: seed must be >= 0\n"

    def test_gradcheck_seeds_start_at_the_config_seed(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []

        def run_battery(seeds):
            calls.append(seeds)
            return []

        monkeypatch.setattr("megraph.cli.run_battery", run_battery)
        path = tmp_path / "c.json"
        save_config(ExperimentConfig(seed=7), path)
        main(["gradcheck", "--config", str(path)])
        main(["gradcheck", "--config", str(path), "--seed", "2"])
        main(["gradcheck"])
        assert calls == [(7, 8, 9, 10, 11), (2, 3, 4, 5, 6), (0, 1, 2, 3, 4)]

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "megraph", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        for command in ("train", "evaluate", "loso", "ablate", "gradcheck",
                        "synth-data", "graph", "model"):
            assert command in result.stdout


# -- generated malformed configs and checkpoints -----------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
SECTIONS = {
    "synth": SynthSpec,
    "model": ModelConfig,
    "loss_weights": LossWeights,
    "optimizer": OptimizerConfig,
    "augment": AugmentConfig,
}
# a config object whose fields, top-level or in a section, take any JSON value
CONFIG_OBJECTS = st.fixed_dictionaries({}, optional={
    f.name: JSON_VALUES | (
        st.fixed_dictionaries(
            {}, optional={g.name: JSON_VALUES for g in fields(SECTIONS[f.name])}
        ) if f.name in SECTIONS else st.nothing()
    )
    for f in fields(ExperimentConfig)
})
GOOD_CONFIG = dumps(ExperimentConfig(seed=3))


def _mutated(text: str):
    """``text`` cut short, or with one character inserted."""
    return st.integers(0, len(text)).flatmap(
        lambda at: st.just(text[:at])
        | st.text(min_size=1, max_size=1).map(lambda c: text[:at] + c + text[at:])
    )


def _exits_2_with_one_line_or_succeeds(argv) -> int:
    """Run the CLI; a failure must be exit 2 with one ``error:`` line on
    stderr, never an exception past ``main``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        assert code == 2
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message
    return code


@settings(max_examples=100, deadline=None)
@given(
    text=st.one_of(
        JSON_VALUES.map(json.dumps),
        CONFIG_OBJECTS.map(json.dumps),
        _mutated(GOOD_CONFIG),
    )
    | st.binary(max_size=32)
)
@example(text='{"seed": %s}' % (10**400))
@example(text='{"optimizer": {"lr": 1e400}}')
@example(text='{"synth": {"n_classes": 99}}')
@example(text=GOOD_CONFIG[:-3])
@example(text=b"\xff")
def test_any_malformed_config_exits_2_with_one_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["config", "show", "--config", str(path)]
    if _exits_2_with_one_line_or_succeeds(argv) == 0:
        load_config(path)  # only a valid config is shown


EVAL_CONFIG = ExperimentConfig(
    synth=SynthSpec(n_subjects=1, samples_per_subject=2, n_classes=3),
    model=SMALL_MODEL,
)
GOOD_STATE = ActionRelationNet(SMALL_MODEL, seed=0).params.state_dict()
CHECKPOINT_NAMES = sorted(GOOD_STATE)
FORMATS = st.sampled_from(["megraph-params-v1", "megraph-params-v2"])


def _v2_text(state) -> str:
    return json.dumps({"format": "megraph-params-v2", "params": {
        name: {"shape": list(v.shape), "values": _b64(*v.ravel())}
        for name, v in state.items()
    }})


SHAPES = JSON_VALUES | st.lists(
    st.integers(-2, 4) | st.sampled_from([2**31, 2**63, 2**64, 10**30]), max_size=4
)
VALUES = (
    JSON_VALUES
    | st.lists(st.floats() | st.integers(-(10**400), 10**400), max_size=6)
    | st.binary(max_size=48).map(lambda raw: base64.b64encode(raw).decode())
)
ENTRIES = JSON_VALUES | st.fixed_dictionaries(
    {}, optional={"shape": SHAPES, "values": VALUES}
)
PARAMS = JSON_VALUES | st.dictionaries(
    st.sampled_from(CHECKPOINT_NAMES) | st.text(max_size=4), ENTRIES, max_size=4
)


def _one_entry_replaced(name_entry):
    """A good checkpoint with one entry replaced."""
    name, entry = name_entry
    payload = json.loads(_v2_text(GOOD_STATE))
    payload["params"][name] = entry
    return json.dumps(payload)


@settings(max_examples=100, deadline=None)
@given(
    text=st.one_of(
        JSON_VALUES.map(json.dumps),
        st.fixed_dictionaries(
            {}, optional={"format": FORMATS | JSON_VALUES, "params": PARAMS}
        ).map(json.dumps),
        st.tuples(st.sampled_from(CHECKPOINT_NAMES), ENTRIES).map(_one_entry_replaced),
        _mutated(_v2_text({"head.b": GOOD_STATE["head.b"]})),
    )
)
@example(text=_v2_text(GOOD_STATE))
@example(text=CHECKPOINT_V2 % '{"head.b": {"shape": [0, %d], "values": ""}}' % 2**64)
@example(text=_one_entry_replaced(("head.b", {"shape": [2], "values": [0.5, 10**400]})))
@example(text=CHECKPOINT_V2 % '{"\\n": null}')
def test_any_malformed_checkpoint_exits_2_with_one_line(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("checkpoint")
    config, path = folder / "config.json", folder / "checkpoint.json"
    save_config(EVAL_CONFIG, config)
    path.write_text(text)
    argv = ["evaluate", "--config", str(config), "--checkpoint", str(path)]
    if _exits_2_with_one_line_or_succeeds(argv) == 0:
        # only a checkpoint that names and shapes every parameter is scored
        assert read_checkpoint(path).keys() == GOOD_STATE.keys()

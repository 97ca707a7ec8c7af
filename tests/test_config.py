"""Config validation and JSON round trips."""

import json
import typing
from dataclasses import dataclass, fields

import pytest

from megraph.config import (
    AugmentConfig,
    ExperimentConfig,
    OptimizerConfig,
    SynthSpec,
    decode,
    dumps,
    encode,
    load_config,
    save_config,
)
from megraph.losses import LossWeights
from megraph.model import ModelConfig

FLOAT_FIELDS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (SynthSpec, OptimizerConfig, AugmentConfig, ExperimentConfig,
                ModelConfig, LossWeights)
    for f in fields(cls)
    if typing.get_type_hints(cls)[f.name] is float
]


class TestValidation:
    def test_synth_spec_bounds(self):
        with pytest.raises(ValueError):
            SynthSpec(n_subjects=0)
        with pytest.raises(ValueError):
            SynthSpec(n_classes=1)
        with pytest.raises(ValueError):
            SynthSpec(noise_sigma=-0.5)

    def test_optimizer_bounds(self):
        with pytest.raises(ValueError):
            OptimizerConfig(lr=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(batch_size=0)

    def test_augment_bounds(self):
        with pytest.raises(ValueError):
            AugmentConfig(copies=-1)
        with pytest.raises(ValueError):
            AugmentConfig(max_scale=1.0)

    def test_negative_seeds_are_rejected_by_name(self):
        with pytest.raises(ValueError, match="^synth.seed must be >= 0$"):
            SynthSpec(seed=-1)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            ExperimentConfig(seed=-2)
        assert SynthSpec(seed=0).seed == ExperimentConfig(seed=0).seed == 0

    def test_experiment_needs_a_data_source(self):
        with pytest.raises(ValueError, match="dataset path or a synth"):
            ExperimentConfig(dataset=None, synth=None)

    def test_experiment_field_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(magnification=0.0)
        for rate in (0.0, 1.5):
            with pytest.raises(ValueError, match="center_rate"):
                ExperimentConfig(center_rate=rate)

    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
    def test_nan_fails_every_float_bound(self, cls, name):
        # only JSON decoding rejects non-finite numbers; a config built in
        # Python must still fail its bounds
        with pytest.raises(ValueError, match=name):
            cls(**{name: float("nan")})


class TestRoundTrips:
    def full_config(self):
        return ExperimentConfig(
            synth=SynthSpec(n_subjects=4, samples_per_subject=4, n_classes=3,
                            noise_sigma=2.0, seed=11),
            model=ModelConfig(variant="actions", channels=8, n_actions=4,
                              relation_channels=6, n_classes=3),
            loss_weights=LossWeights(0.5, 1.5, 0.05),
            optimizer=OptimizerConfig(lr=0.02, momentum=0.8, epochs=40,
                                      batch_size=8, plateau_patience=5,
                                      plateau_tol=1e-3),
            augment=AugmentConfig(copies=2, max_scale=0.03, max_shift=1.0),
            seed=9,
            magnification=2.5,
            center_rate=0.25,
        )

    def test_dict_round_trip_compares_equal(self):
        cfg = self.full_config()
        assert decode(ExperimentConfig, encode(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = self.full_config()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        # serialization is stable: dumping the reloaded config is identical
        assert dumps(load_config(path)) == dumps(cfg)

    def test_dataset_path_survives(self, tmp_path):
        cfg = ExperimentConfig(dataset="data/train.jsonl", synth=None)
        back = decode(ExperimentConfig, encode(cfg))
        assert back.dataset == "data/train.jsonl"
        assert back.synth is None

    def test_unknown_fields_rejected(self):
        payload = encode(ExperimentConfig())
        payload["learning_rate"] = 0.1
        with pytest.raises(ValueError, match="unknown config fields"):
            decode(ExperimentConfig, payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"optimizer": {"epochs": "ten"}},
             "config.optimizer.epochs: expected int, got str"),
            ({"optimizer": {"learning_rate": 0.5}},
             r"unknown config fields in config.optimizer: \['learning_rate'\]"),
            ({"optimizer": {"epochs": True}},
             "config.optimizer.epochs: expected int, got bool"),
            ({"model": {"channels": 2.5}},
             "config.model.channels: expected int, got float"),
            ({"model": None}, "config.model: expected object, got null"),
            ({"synth": {"noise_sigma": "1"}},
             "config.synth.noise_sigma: expected float, got str"),
            ({"optimizer": {"lr": float("nan")}},
             "config.optimizer.lr: expected a finite number"),
            ({"magnification": float("inf")},
             "config.magnification: expected a finite number"),
            ({"synth": {"noise_sigma": float("-inf")}},
             "config.synth.noise_sigma: expected a finite number"),
        ],
    )
    def test_nested_keys_and_types_are_checked(self, payload, message):
        with pytest.raises(ValueError, match=message):
            decode(ExperimentConfig, payload)

    def test_int_is_accepted_for_float(self):
        cfg = decode(ExperimentConfig, {"optimizer": {"lr": 1}, "synth": None,
                                        "dataset": "d.jsonl"})
        assert cfg.optimizer.lr == 1 and cfg.synth is None

    def test_missing_fields_take_defaults(self):
        cfg = decode(ExperimentConfig, {"seed": 3})
        assert cfg.seed == 3
        assert cfg.model == ModelConfig()
        assert cfg.optimizer == OptimizerConfig()


FULL = TestRoundTrips().full_config()


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(SynthSpec(n_subjects=4, noise_sigma=2.0, seed=11), id="synth"),
        pytest.param(OptimizerConfig(lr=0.02, epochs=40, plateau_tol=1e-3),
                     id="optimizer"),
        pytest.param(AugmentConfig(copies=2, max_scale=0.03), id="augment"),
        pytest.param(ModelConfig(variant="actions", channels=8, n_actions=4),
                     id="model"),
        pytest.param(LossWeights(0.5, 1.5, 0.05), id="loss_weights"),
        pytest.param(ExperimentConfig(), id="experiment_defaults"),
        pytest.param(FULL, id="experiment_full"),
        pytest.param(ExperimentConfig(dataset="data/train.jsonl", synth=None),
                     id="experiment_without_synth"),
        pytest.param(OptimizerConfig(lr=1, momentum=0), id="int_for_float"),
    ],
)
def test_decode_inverts_encode(config):
    assert decode(type(config), encode(config)) == config
    text = json.dumps(encode(config))
    assert decode(type(config), json.loads(text)) == config


class TestEncode:
    def test_fields_in_declaration_order(self):
        payload = encode(FULL)
        assert list(payload) == [
            "dataset", "synth", "model", "loss_weights", "optimizer",
            "augment", "seed", "magnification", "center_rate",
        ]
        assert payload["synth"] == {
            "n_subjects": 4, "samples_per_subject": 4, "n_classes": 3,
            "noise_sigma": 2.0, "seed": 11,
        }
        assert encode(ExperimentConfig(dataset="d", synth=None))["synth"] is None

    def test_lists_of_dataclasses_are_encoded_and_others_shared(self):
        @dataclass
        class Row:
            values: list

        @dataclass
        class Table:
            rows: list
            extra: list

        values, extra = [[0.5, 1.5]], [1, 2]
        payload = encode(Table(rows=[Row(values)], extra=extra))
        assert payload == {"rows": [{"values": [[0.5, 1.5]]}], "extra": [1, 2]}
        assert payload["rows"][0]["values"] is values
        assert payload["extra"] is extra

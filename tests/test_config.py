"""The JSON codec every config shares: exact bytes, field coverage, refusals."""
from __future__ import annotations

import dataclasses
import json

import pytest

from peaknetfp.encoder import DEFAULT_CONFIG, BranchSpec, EncoderConfig
from peaknetfp.errors import ConfigError
from peaknetfp.evaluate import EvalConfig
from peaknetfp.training import TrainConfig

# the sorted-key JSON of the defaults (the eval and encoder configs' as the
# hand-written codecs produced it); checkpoints, quad.db files, reports and
# config_hash are built from it
RECORDED = [
    (
        TrainConfig(),
        '{"epochs": 16, "pairs_per_batch": 8, "seed": 0, "steps_per_epoch": 40}',
    ),
    (
        EvalConfig(),
        '{"backend": "exact", "factors": [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.975, '
        '1.05, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0], "lengths": [2.0, 3.0, 5.0, '
        '6.0, 10.0], "n_queries": 20, "seed": 0, "system": "peaknetfp"}',
    ),
    (
        DEFAULT_CONFIG,
        '{"global_mlp": [128, 256, 128], "stage1": {"branches": ['
        '{"group_size": 4, "mlp": [16, 16, 32], "radius": 0.1}, '
        '{"group_size": 8, "mlp": [32, 32, 64], "radius": 0.2}, '
        '{"group_size": 16, "mlp": [32, 48, 64], "radius": 0.3}], "n_anchors": 200}, '
        '"stage2": {"branches": ['
        '{"group_size": 4, "mlp": [32, 32, 64], "radius": 0.2}, '
        '{"group_size": 8, "mlp": [64, 64, 128], "radius": 0.3}, '
        '{"group_size": 16, "mlp": [64, 64, 128], "radius": 0.4}], "n_anchors": 100}}',
    ),
]


@pytest.mark.parametrize("cfg, text", RECORDED, ids=lambda v: type(v).__name__)
def test_default_json_is_byte_stable(cfg, text):
    assert json.dumps(cfg.to_dict(), sort_keys=True) == text
    assert type(cfg).from_dict(json.loads(text)) == cfg


def test_config_hash_is_stable():
    assert EvalConfig().config_hash() == "e9e00e257f155b4f"


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(),
        EvalConfig(),
        DEFAULT_CONFIG,
        DEFAULT_CONFIG.stage1,
        DEFAULT_CONFIG.stage1.branches[0],
    ],
    ids=lambda c: type(c).__name__,
)
def test_keys_are_the_field_names_in_order(cfg):
    names = [f.name for f in dataclasses.fields(cfg)]
    assert list(cfg.to_dict()) == names


def test_integer_eval_factors_give_the_same_json():
    cfg = EvalConfig(factors=(1, 2), lengths=(2, 5))
    assert cfg.to_dict()["factors"] == [1.0, 2.0]
    assert EvalConfig.from_dict({"factors": [1, 2], "lengths": [2, 5]}) == cfg


def test_integer_float_field_gives_the_same_json():
    cfg = BranchSpec.from_dict({"group_size": 4, "radius": 1, "mlp": [8]})
    assert json.dumps(cfg.to_dict()) == json.dumps(BranchSpec(4, 1.0, (8,)).to_dict())


def _encoder_dict() -> dict:
    return json.loads(json.dumps(DEFAULT_CONFIG.to_dict()))


def _with_branch_key(d: dict) -> dict:
    d["stage2"]["branches"][1]["mystery"] = 1
    return d


@pytest.mark.parametrize(
    "make",
    [
        lambda: {**_encoder_dict(), "mystery": 1},
        lambda: _with_branch_key(_encoder_dict()),
        lambda: {**_encoder_dict(), "stage1": 200},
        lambda: {**_encoder_dict(), "stage1": {**_encoder_dict()["stage1"], "branches": 3}},
        lambda: {k: v for k, v in _encoder_dict().items() if k != "global_mlp"},
        lambda: {**_encoder_dict(), "global_mlp": [128, "wide"]},
        lambda: [1, 2, 3],
    ],
    ids=[
        "unknown-top",
        "unknown-branch",
        "stage1-not-dict",
        "branches-not-list",
        "missing-field",
        "bad-width",
        "not-a-dict",
    ],
)
def test_encoder_config_refusals(make):
    with pytest.raises(ConfigError):
        EncoderConfig.from_dict(make())


@pytest.mark.parametrize(
    "cls, d",
    [
        (TrainConfig, {"bogus": 1}),
        (TrainConfig, {"epochs": "many"}),
        (EvalConfig, {"factors": 1.0}),
        (EvalConfig, {"factors": ["fast"]}),
        (BranchSpec, {"group_size": 4, "radius": 10**400, "mlp": [8]}),
        (TrainConfig, {"steps_per_epoch": None}),
    ],
)
def test_flat_config_refusals(cls, d):
    with pytest.raises(ConfigError):
        cls.from_dict(d)


@pytest.mark.parametrize("key, value", [("distance_mode", "3d"), ("bn_eps", 1e-5), ("bn_momentum", 0.1)])
def test_formerly_pinned_keys_are_refused(key, value):
    # older checkpoints stored these keys, at the only value the encoder has
    with pytest.raises(ConfigError, match=key):
        EncoderConfig.from_dict({**_encoder_dict(), key: value})

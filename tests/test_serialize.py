"""Model files: exact round trips and input validation."""

import json

import numpy as np
import pytest

from cnetlearn import (
    ChowLiuTree,
    CutsetNetwork,
    DatasetError,
    DecisionNode,
    Leaf,
    LearnerConfig,
    Mixture,
    ScoreConfig,
    cnet_log_density_rows,
    learn_cnet,
    learn_sem,
    load_model,
    mixture_log_density_rows,
    model_from_dict,
    model_to_dict,
    save_model,
)

from helpers import enumerate_bits, random_dataset, regime_samples, unit_dataset


def test_cnet_roundtrip_preserves_density_bitwise(tmp_path):
    rng = np.random.default_rng(800)
    d = unit_dataset(regime_samples(rng, 150, 6))
    cfg = LearnerConfig()
    net = learn_cnet(d, cfg)
    path = tmp_path / "m.json"
    save_model(str(path), net, cfg.score, {"note": "roundtrip"})
    loaded, score, provenance = load_model(str(path))
    assert provenance == {"note": "roundtrip"}
    assert score == cfg.score
    x = enumerate_bits(6)
    assert np.array_equal(
        cnet_log_density_rows(loaded, x), cnet_log_density_rows(net, x)
    )


def test_save_load_save_byte_identical(tmp_path):
    rng = np.random.default_rng(801)
    d = random_dataset(rng, 80, 5)
    cfg = LearnerConfig(score=ScoreConfig(kind="bic", beta=0.2))
    m = learn_sem(d, 2, cfg, rng, max_iters=2)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_model(str(p1), m, cfg.score)
    model, score, provenance = load_model(str(p1))
    save_model(str(p2), model, score, provenance)
    assert p1.read_bytes() == p2.read_bytes()


def test_mixture_roundtrip_preserves_density(tmp_path):
    rng = np.random.default_rng(802)
    d = unit_dataset(regime_samples(rng, 120, 6))
    cfg = LearnerConfig()
    m = learn_sem(d, 2, cfg, rng, max_iters=2)
    path = tmp_path / "mix.json"
    save_model(str(path), m, cfg.score)
    loaded, _, _ = load_model(str(path))
    assert isinstance(loaded, Mixture)
    assert np.array_equal(loaded.mix_weights, m.mix_weights)
    x = enumerate_bits(6)
    assert np.array_equal(
        mixture_log_density_rows(loaded, x), mixture_log_density_rows(m, x)
    )


def test_model_file_is_single_line_compact_json(tmp_path):
    rng = np.random.default_rng(803)
    d = random_dataset(rng, 40, 4)
    cfg = LearnerConfig()
    path = tmp_path / "m.json"
    save_model(str(path), learn_cnet(d, cfg), cfg.score)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert ": " not in text and ", " not in text
    doc = json.loads(text)
    assert doc["format_version"] == 1
    assert doc["kind"] == "cnet"


def test_unsupported_format_version():
    with pytest.raises(DatasetError):
        model_from_dict({"format_version": 99})


def test_unknown_model_kind():
    rng = np.random.default_rng(804)
    d = random_dataset(rng, 20, 3)
    cfg = LearnerConfig()
    doc = model_to_dict(learn_cnet(d, cfg), cfg.score)
    doc["kind"] = "mystery"
    with pytest.raises(DatasetError):
        model_from_dict(doc)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("this is not json{")
    with pytest.raises(DatasetError):
        load_model(str(path))


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1,2,3]\n")
    with pytest.raises(DatasetError):
        load_model(str(path))


def test_save_rejects_model_deeper_than_json_nests(tmp_path):
    # save does not validate, so one variable serves every level; a valid
    # network this deep needs 3,001 variables and takes seconds to write
    def leaf():
        cpt = [np.array([[0.5, 0.5]])]
        return Leaf(ChowLiuTree(np.array([0]), np.array([-1]), np.array([0]), cpt))

    node = leaf()
    for _ in range(3000):
        node = DecisionNode(0, np.array([0.5, 0.5]), [leaf(), node])
    path = tmp_path / "deep.json"
    with pytest.raises(DatasetError, match="nests too deeply") as exc:
        save_model(path, CutsetNetwork(node, np.array([0])), ScoreConfig())
    assert str(path) in str(exc.value)
    assert not path.exists()

"""Model files: exact round trips, input validation, and pinned bytes of
learned models."""

import hashlib
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
    WeightedDataset,
    clt_sample,
    cnet_log_density_rows,
    learn_cnet,
    learn_sem,
    load_model,
    mixture_log_density_rows,
    model_from_dict,
    model_to_dict,
    save_model,
)

from helpers import enumerate_bits, random_dataset, random_tree, regime_samples, unit_dataset


# sha256 of each model file without its provenance block.  Learned models
# must stay byte-stable, across BLAS thread counts too: weights lie on a
# grid on which every count is exact (see WeightedDataset), so the Gram
# products give the same bits under any thread count.
PINNED_MODELS = {
    "bd": "51fc55833db24b5cd22747dc69023dcdddd50aeb848f3bc3ca4a93ef7bb30062",
    "bic": "63d9ba8b9f3e6648fc441ba224dfb2708bab4d5b607cd82232770c8cd2d955fe",
    "bd-mixture": "290c49b080c03af566319f5c7a6b72c810fe329607a2144ce38eb8802d1cc4fb",
}


def _planted_rows(rng, n: int, n_vars: int, k: int) -> np.ndarray:
    """n rows from a uniform mixture of k random trees whose CPT rows put
    0.1 or 0.9 on a one; a few switch variables spell out the tree's
    index in binary, so cuts on them separate the trees."""
    switch = rng.permutation(n_vars)[: (k - 1).bit_length()].tolist()
    trees = []
    for c in range(k):
        tree = random_tree(rng, range(n_vars))
        for v in range(n_vars):
            p1 = rng.choice([0.1, 0.9], size=1 if tree.parents[v] < 0 else 2)
            if v in switch:
                p1[:] = 0.99 if (c >> switch.index(v)) & 1 else 0.01
            tree.cpt[v, : len(p1)] = np.stack([1 - p1, p1], axis=1)
        trees.append(tree)
    z = rng.integers(0, k, n)
    x = np.zeros((n, n_vars), dtype=np.uint8)
    for c, tree in enumerate(trees):
        x[z == c] = clt_sample(tree, int(np.sum(z == c)), rng)
    return x


def _pinned_learn(name: str):
    """(model, score) of one pinned learn on a planted dataset of 2,000
    rows x 16 variables: a network on unit weights, or a 2-component
    mixture on fractional weights."""
    x = _planted_rows(np.random.default_rng(2024), 2000, 16, 8)
    if name == "bd-mixture":
        w = np.random.default_rng(2025).uniform(0.25, 1.75, len(x))
        cfg = LearnerConfig(score=ScoreConfig(kind="bd"))
        return learn_sem(WeightedDataset(x, w), 2, cfg, np.random.default_rng(7), max_iters=3), cfg.score
    cfg = LearnerConfig(score=ScoreConfig(kind=name))
    return learn_cnet(unit_dataset(x), cfg), cfg.score


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_learned_model_bytes_are_pinned(name, tmp_path):
    model, score = _pinned_learn(name)
    path = tmp_path / "model.json"
    save_model(str(path), model, score, {"note": "pinned"})
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj.pop("provenance")
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(canon).hexdigest() == PINNED_MODELS[name]


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
        cpt = np.full((1, 2, 2), 0.5)
        return Leaf(ChowLiuTree(np.array([0]), np.array([-1]), np.array([0]), cpt))

    node = leaf()
    for _ in range(3000):
        node = DecisionNode(0, np.array([0.5, 0.5]), [leaf(), node])
    path = tmp_path / "deep.json"
    with pytest.raises(DatasetError, match="nests too deeply") as exc:
        save_model(path, CutsetNetwork(node, np.array([0])), ScoreConfig())
    assert str(path) in str(exc.value)
    assert not path.exists()

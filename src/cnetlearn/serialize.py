"""JSON model files.

Floats are written with Python's shortest round-trip repr, so the
numbers read back are bit-identical and save -> load -> save reproduces
the same bytes.  The file records the score configuration the model was
learned with plus a free-form provenance block.
"""

from __future__ import annotations

import json

import numpy as np

from .clt import ChowLiuTree
from .cnet import CutsetNetwork, DecisionNode, Leaf
from .data import DatasetError
from .mixture import Mixture
from .scores import ScoreConfig

__all__ = [
    "FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1


def _tree_to_dict(t: ChowLiuTree) -> dict:
    return {
        "variable_ids": [int(v) for v in t.variable_ids],
        "parents": [int(p) for p in t.parents],
        "order": [int(v) for v in t.order],
        "cpt": [[[float(p) for p in row] for row in table] for table in t.cpt],
    }


def _tree_from_dict(obj: dict, rows: list) -> ChowLiuTree:
    parents = np.array(obj["parents"], dtype=np.int64)
    cpt = [np.array(table, dtype=np.float64) for table in obj["cpt"]]
    if [t.shape for t in cpt] != [(1 if p < 0 else 2, 2) for p in parents.tolist()]:
        raise DatasetError("CPT tables must be 1x2 at the tree root, 2x2 elsewhere")
    rows.extend(cpt)
    return ChowLiuTree(
        np.array(obj["variable_ids"], dtype=np.int64),
        parents,
        np.array(obj["order"], dtype=np.int64),
        cpt,
    )


def _node_to_dict(node) -> dict:
    if node.kind == "leaf":
        return {"kind": "leaf", "tree": _tree_to_dict(node.tree)}
    return {
        "kind": "decision",
        "var": int(node.var),
        "weights": [float(w) for w in node.weights],
        "children": [_node_to_dict(c) for c in node.children],
    }


def _node_from_dict(obj: dict, rows: list):
    """Parse one node; its CPT tables and decision weights are appended
    to `rows` as (k, 2) arrays, for one probability check per network."""
    kind = obj.get("kind")
    if kind == "leaf":
        return Leaf(_tree_from_dict(obj["tree"], rows))
    if kind == "decision":
        weights = np.array(obj["weights"], dtype=np.float64)
        if len(obj["children"]) != 2 or weights.shape != (2,):
            raise DatasetError("a decision node needs two children and two weights")
        rows.append(weights[None, :])
        children = tuple(_node_from_dict(c, rows) for c in obj["children"])
        return DecisionNode(int(obj["var"]), weights, children)
    raise DatasetError(f"unknown node kind {kind!r} in model file")


def _net_to_dict(net: CutsetNetwork) -> dict:
    return {
        "variable_ids": [int(v) for v in net.variable_ids],
        "root": _node_to_dict(net.root),
    }


def _net_from_dict(obj: dict) -> CutsetNetwork:
    rows = [np.empty((0, 2))]
    root = _node_from_dict(obj["root"], rows)
    rows = np.concatenate(rows)
    in_range = np.all((rows >= 0.0) & (rows <= 1.0))
    if not (in_range and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)):
        raise DatasetError(
            "CPT rows and decision weights must lie in [0, 1] and sum to 1"
        )
    return CutsetNetwork(root, np.array(obj["variable_ids"], dtype=np.int64))


def _score_to_dict(cfg: ScoreConfig) -> dict:
    return {
        "kind": cfg.kind,
        "alpha": float(cfg.alpha),
        "beta": float(cfg.beta),
        "root_dataset_size": float(cfg.root_dataset_size),
    }


def _score_from_dict(obj: dict) -> ScoreConfig:
    return ScoreConfig(
        kind=obj["kind"],
        alpha=obj["alpha"],
        beta=obj["beta"],
        root_dataset_size=obj["root_dataset_size"],
    )


def model_to_dict(model, score: ScoreConfig, provenance: dict | None = None) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "score": _score_to_dict(score),
        "provenance": provenance or {},
    }
    if isinstance(model, Mixture):
        out["kind"] = "mixture"
        out["mix_weights"] = [float(w) for w in model.mix_weights]
        out["components"] = [_net_to_dict(c) for c in model.components]
    elif isinstance(model, CutsetNetwork):
        out["kind"] = "cnet"
        out["net"] = _net_to_dict(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return out


def model_from_dict(obj: dict):
    """Returns (model, score config, provenance dict)."""
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise DatasetError(f"unsupported model format version {version!r}")
    score = _score_from_dict(obj["score"])
    provenance = obj.get("provenance", {})
    kind = obj.get("kind")
    if kind == "cnet":
        return _net_from_dict(obj["net"]), score, provenance
    if kind == "mixture":
        components = [_net_from_dict(c) for c in obj["components"]]
        model = Mixture(components, np.array(obj["mix_weights"], dtype=np.float64))
        return model, score, provenance
    raise DatasetError(f"unknown model kind {kind!r}")


def save_model(path, model, score: ScoreConfig, provenance: dict | None = None) -> None:
    payload = json.dumps(
        model_to_dict(model, score, provenance), separators=(",", ":")
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")


def load_model(path):
    """Returns (model, score config, provenance dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetError(f"{path}: not a valid model file")
    try:
        return model_from_dict(obj)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise DatasetError(f"{path}: not a valid model file: {exc!r}") from exc

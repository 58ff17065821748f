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
from .cnet import CutsetNetwork, DecisionNode, Leaf, walk
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
    """The file holds a root's one CPT row and both rows of every other
    variable: 1x2 tables at the root, 2x2 elsewhere."""
    parents = [int(p) for p in t.parents]
    return {
        "variable_ids": [int(v) for v in t.variable_ids],
        "parents": parents,
        "order": [int(v) for v in t.order],
        "cpt": [table[:1] if p < 0 else table for table, p in zip(t.cpt.tolist(), parents)],
    }


def _tree_from_dict(obj: dict) -> ChowLiuTree:
    """The tree of a file's dict, its 1x2 and 2x2 tables filled into one
    (d, 2, 2) CPT whose root row 1 reads (0.5, 0.5)."""
    parents = np.array(obj["parents"], dtype=np.int64)
    tables = obj["cpt"]
    widths = [[len(row) for row in table] for table in tables]
    if widths != [[2] if p < 0 else [2, 2] for p in parents.tolist()]:
        raise DatasetError("CPT tables must be 1x2 at the tree root, 2x2 elsewhere")
    has_row = np.stack([np.ones(len(parents), dtype=bool), parents >= 0], axis=1)
    cpt = np.full((len(parents), 2, 2), 0.5)
    rows = [row for table in tables for row in table]
    cpt[has_row] = np.array(rows, dtype=np.float64).reshape(-1, 2)
    return ChowLiuTree(
        np.array(obj["variable_ids"], dtype=np.int64),
        parents,
        np.array(obj["order"], dtype=np.int64),
        cpt,
    )


def _net_to_dict(net: CutsetNetwork) -> dict:
    done = {}  # id(node) -> its dict, children first
    for node, _ in reversed(list(walk(net.root))):
        if node.kind == "leaf":
            out = {"kind": "leaf", "tree": _tree_to_dict(node.tree)}
        else:
            out = {
                "kind": "decision",
                "var": int(node.var),
                "weights": [float(w) for w in node.weights],
                "children": [done[id(c)] for c in node.children],
            }
        done[id(node)] = out
    return {
        "variable_ids": [int(v) for v in net.variable_ids],
        "root": done[id(net.root)],
    }


def _node_from_dict(obj: dict):
    """One node; a decision node's children are left for the caller."""
    kind = obj.get("kind")
    if kind == "leaf":
        return Leaf(_tree_from_dict(obj["tree"]))
    if kind == "decision":
        weights = np.array(obj["weights"], dtype=np.float64)
        return DecisionNode(int(obj["var"]), weights, [])
    raise DatasetError(f"unknown node kind {kind!r} in model file")


def _net_from_dict(obj: dict) -> CutsetNetwork:
    root = _node_from_dict(obj["root"])
    for node, node_obj in walk(root, obj["root"], lambda n, o, k: o["children"][k]):
        if node.kind == "decision":
            node.children = [_node_from_dict(c) for c in node_obj["children"]]
    net = CutsetNetwork(root, np.array(obj["variable_ids"], dtype=np.int64))
    net.validate()
    return net


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
    try:
        payload = json.dumps(
            model_to_dict(model, score, provenance), separators=(",", ":")
        )
    except RecursionError as exc:
        raise DatasetError(f"{path}: model nests too deeply for JSON") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")


def load_model(path):
    """Returns (model, score config, provenance dict); a file whose CPT
    tables are not 1x2 at a tree's root and 2x2 elsewhere, or that fails
    any check of `CutsetNetwork.validate`, raises DatasetError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: not a valid model file: {exc}") from exc
        except RecursionError as exc:
            raise DatasetError(f"{path}: model file nests too deeply for JSON") from exc
    if not isinstance(obj, dict):
        raise DatasetError(f"{path}: not a valid model file")
    try:
        return model_from_dict(obj)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise DatasetError(f"{path}: not a valid model file: {exc!r}") from exc

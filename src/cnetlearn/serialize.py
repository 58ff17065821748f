"""JSON model files.

Floats are written with Python's shortest round-trip repr, so the
numbers read back are bit-identical and save -> load -> save reproduces
the same bytes.  The file records the score configuration the model was
learned with plus a free-form provenance block.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .clt import ChowLiuTree
from .cnet import CutsetNetwork, DecisionNode, Leaf, _check_nets, walk
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


def _views(lists: list, dtype) -> tuple:
    """(flat, views): one array of the items of every list in `lists`,
    and a view of it per list."""
    if not all(isinstance(seq, list) for seq in lists):
        raise DatasetError("model file fields must be lists of numbers")
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=dtype)
    ends = list(itertools.accumulate(map(len, lists)))
    return flat, [flat[a:b] for a, b in zip([0, *ends], ends)]


def _trees_from_dicts(objs: list) -> list:
    """The trees of a file's tree dicts, parsed together: each field is
    one array for every tree, and each tree holds views into it.  A
    tree's 1x2 and 2x2 tables fill its (d, 2, 2) CPT, whose root row 1
    reads (0.5, 0.5)."""
    _, ids = _views([o["variable_ids"] for o in objs], np.int64)
    every_parent, parents = _views([o["parents"] for o in objs], np.int64)
    _, order = _views([o["order"] for o in objs], np.int64)
    per_tree = [o["cpt"] for o in objs]
    tables = list(itertools.chain.from_iterable(per_tree))
    rows = list(itertools.chain.from_iterable(tables))
    if (
        list(map(len, per_tree)) != list(map(len, parents))
        or list(map(len, tables)) != (1 + (every_parent >= 0)).tolist()
        or set(map(len, rows)) - {2}
    ):
        raise DatasetError("CPT tables must be 1x2 at the tree root, 2x2 elsewhere")
    has_row = np.stack([np.ones(len(every_parent), dtype=bool), every_parent >= 0], axis=1)
    cpt = np.full((len(every_parent), 2, 2), 0.5)
    cpt[has_row] = np.fromiter(itertools.chain.from_iterable(rows), float).reshape(-1, 2)
    ends = list(itertools.accumulate(map(len, parents)))
    return [
        ChowLiuTree(ids[k], parents[k], order[k], cpt[a:b])
        for k, (a, b) in enumerate(zip([0, *ends], ends))
    ]


def _nets_from_dicts(objs: list) -> list:
    """The validated networks of a file's network dicts.  The trees of all
    of them are parsed in one pass (see _trees_from_dicts) and checked in
    one pass (see cnet._check_nets), and so are the weights of all their
    decision nodes."""
    leaves, tree_objs, decisions, weight_objs = [], [], [], []

    def node_of(obj):
        # one node; a decision node's children are left for the walk
        kind = obj.get("kind")
        if kind == "leaf":
            leaves.append(Leaf(None))
            tree_objs.append(obj["tree"])
            return leaves[-1]
        if kind == "decision":
            decisions.append(DecisionNode(int(obj["var"]), None, []))
            weight_objs.append(obj["weights"])
            return decisions[-1]
        raise DatasetError(f"unknown node kind {kind!r} in model file")

    nets = []
    for obj in objs:
        root = node_of(obj["root"])
        for node, node_obj in walk(root, obj["root"], lambda n, o, k: o["children"][k]):
            if node.kind == "decision":
                node.children = [node_of(c) for c in node_obj["children"]]
        nets.append(CutsetNetwork(root, np.array(obj["variable_ids"], dtype=np.int64)))
    for leaf, tree in zip(leaves, _trees_from_dicts(tree_objs)):
        leaf.tree = tree
    for node, weights in zip(decisions, _views(weight_objs, np.float64)[1]):
        node.weights = weights
    _check_nets(nets)
    return nets


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
        return _nets_from_dicts([obj["net"]])[0], score, provenance
    if kind == "mixture":
        components = _nets_from_dicts(obj["components"])
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
    except (KeyError, TypeError, IndexError, AttributeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}: not a valid model file: {exc!r}") from exc

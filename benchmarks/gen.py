"""Seeded synthetic inputs for the benchmark workloads.

Every workload draws its data from one generator: a planted mixture of
random spanning trees with random conditional probability tables.  Shapes
follow the 20-dataset binary suite (Lowd & Davis 2010; Van Haaren & Davis
2012).  The real files are not in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


# small commands, so a run holds many samples of each: the machine's
# speed changes by up to two times over a few seconds
N_SAMPLE = 500  # rows drawn per `sample` command
N_MPE = 40  # evidence rows per `mpe` command


@dataclass(frozen=True)
class Workload:
    name: str
    n_vars: int
    n_train: int
    n_test: int
    density: str  # "dense" (marginals 0.1-0.9) or "sparse" (about 12% ones)
    n_components: int  # planted trees
    learn_argv: tuple  # the learn command and its flags, without files


LEARN_BD = ("learn", "--score", "bd")
LEARN_MIX = (
    "learn-mixture",
    *("--score", "bic", "--components", "4", "--max-iters", "3", "--seed", "0"),
)

WORKLOADS = {
    w.name: w
    for w in (
        # Audio shape: about 5 cuts over large leaves
        Workload("audio-dense", 100, 15000, 3000, "dense", 6, LEARN_BD),
        # market-basket shape: about 70 cuts to depth 7 and more
        Workload("basket-deep", 40, 10000, 3000, "sparse", 64, LEARN_BD),
        # NLTCS shape: as many planted trees as mixture components
        Workload("nltcs-mix", 16, 16181, 3236, "dense", 4, LEARN_MIX),
    )
}


def _random_tree(rng: np.random.Generator, n_vars: int) -> tuple:
    """(order, parents): a uniformly shuffled variable order in which each
    variable after the first hangs under a random earlier one."""
    order = rng.permutation(n_vars)
    parents = np.full(n_vars, -1, dtype=np.int64)
    for i in range(1, n_vars):
        parents[order[i]] = order[rng.integers(i)]
    return order, parents


def _random_cpts(rng: np.random.Generator, w: Workload, switch: np.ndarray) -> list:
    """One (n_vars, 2) table per component: p[v, u] = P(x_v = 1 | parent
    value u); a root uses u = 0.  The switch variables spell out the
    component's index in binary."""
    n, k = w.n_vars, w.n_components
    if w.density == "dense":
        # components share a base marginal and each moves it by up to 0.15
        base = rng.uniform(0.25, 0.75, n)
        cpts = []
        for _ in range(k):
            mid = base + rng.uniform(-0.15, 0.15, n)
            shift = rng.uniform(0.1, 0.2, n) * rng.choice([-1.0, 1.0], n)
            cpts.append(np.clip(np.stack([mid - shift, mid + shift], 1), 0.02, 0.98))
    else:
        # an item is rare unless its parent item is in the basket
        cpts = [
            np.stack([rng.uniform(0.005, 0.03, n), rng.uniform(0.2, 0.5, n)], 1)
            for _ in range(k)
        ]
    for c, cpt in enumerate(cpts):
        for bit, v in enumerate(switch):
            cpt[v] = 0.999 if (c >> bit) & 1 else 0.001
    return cpts


def planted_mixture_rows(w: Workload, stream: list, n_rows: int) -> np.ndarray:
    """n_rows draws from the workload's planted mixture of random trees.

    Cuts on the switch variables separate the components cleanly.  The
    planted model is fixed per workload; `stream` seeds the draw.
    """
    plant = np.random.default_rng([0, w.n_vars, w.n_components])
    switch = plant.permutation(w.n_vars)[: (w.n_components - 1).bit_length()]
    trees = [_random_tree(plant, w.n_vars) for _ in range(w.n_components)]
    cpts = _random_cpts(plant, w, switch)
    mix = plant.dirichlet(np.full(w.n_components, 20.0))

    rng = np.random.default_rng([*stream, w.n_vars, w.n_components])
    comp = rng.choice(w.n_components, size=n_rows, p=mix)
    u = rng.random((n_rows, w.n_vars))
    x = np.zeros((n_rows, w.n_vars), dtype=np.uint8)
    for c in range(w.n_components):
        rows = np.flatnonzero(comp == c)
        order, parents = trees[c]
        for v in order:
            pv = np.zeros(rows.size, dtype=np.int64)
            if parents[v] >= 0:
                pv = x[rows, parents[v]].astype(np.int64)
            x[rows, v] = u[rows, v] < cpts[c][v, pv]
    return x


@dataclass
class Inputs:
    train: Path
    test: Path
    evidence: Path
    test_rows: np.ndarray  # the test split, in file order
    evidence_source: np.ndarray  # the full row each evidence row hides
    evidence_mask: np.ndarray  # True where the evidence cell is observed


def _csv(cells: np.ndarray) -> str:
    return "\n".join(",".join(row) for row in cells) + "\n"


def write_inputs(w: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the train, test and evidence files for `seed`.

    The train split is the workload's own, the same for every seed, as a
    dataset of the suite would be; so is the model learned from it.  The
    evidence is the workload's own too: rows of a held-out draw with
    each cell hidden with probability one half.  An MPE query explores
    both branches of every hidden cut variable, so its cost depends on
    which cells are hidden; 100 seed-drawn rows made the MPE work itself
    differ 1.7 times between seeds.  `seed` draws the test split.  The
    same seed gives the same bytes.
    """
    train = planted_mixture_rows(w, [0, 0], w.n_train)
    test = planted_mixture_rows(w, [seed, 1], w.n_test)
    source = planted_mixture_rows(w, [0, 2], N_MPE)
    hide = np.random.default_rng([0, 3, w.n_vars, w.n_components])
    mask = hide.random(source.shape) >= 0.5
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        out_dir / "train.csv", out_dir / "test.csv", out_dir / "evidence.csv",
        test, source, mask,
    )
    inputs.train.write_text(_csv(np.where(train == 1, "1", "0")))
    inputs.test.write_text(_csv(np.where(test == 1, "1", "0")))
    hidden = np.where(mask, np.where(source == 1, "1", "0"), "?")
    inputs.evidence.write_text(_csv(hidden))
    return inputs

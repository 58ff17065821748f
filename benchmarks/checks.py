"""Output checks for the benchmark's commands.

Each check returns a list of problems; an empty list means the output is
correct.  The checks read only files and arrays, so they can be tested on
hand-corrupted outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

TOL = 1e-9


def parse_kv(text: str) -> dict:
    """The CLI's `key=value` output lines as one dict (last value wins)."""
    out = {}
    for line in text.splitlines():
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                out[key] = value
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check_eval_agreement(direct: float, via_circuit: float) -> list:
    if _close(direct, via_circuit):
        return []
    return [f"eval mean_ll {direct!r} differs from the circuit's {via_circuit!r}"]


def model_digest(path: Path) -> str:
    """SHA-256 of a model file with its provenance block removed; the
    provenance holds the learning time and the train path."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    obj.pop("provenance", None)
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def check_same_bytes(original: Path, rewritten: Path) -> list:
    if Path(original).read_bytes() == Path(rewritten).read_bytes():
        return []
    return [f"{rewritten.name} does not reproduce the bytes of {original.name}"]


def check_sample(path: Path, n: int, width: int) -> list:
    lines = Path(path).read_text().splitlines()
    if len(lines) != n:
        return [f"sample wrote {len(lines)} rows, expected {n}"]
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            return [f"sample row {i} has {len(cells)} cells, expected {width}"]
        if any(c not in ("0", "1") for c in cells):
            return [f"sample row {i} holds a value other than 0 or 1"]
    return []


def _read_mpe(path: Path, width: int) -> tuple:
    """(completions as a uint8 matrix, printed scores), or raises
    ValueError on a malformed line."""
    values, scores = [], []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        cells = line.split(",")
        if len(cells) != width + 1:
            raise ValueError(f"mpe row {i} has {len(cells)} cells, expected {width + 1}")
        if any(c not in ("0", "1") for c in cells[:width]):
            raise ValueError(f"mpe row {i} holds a value other than 0 or 1")
        values.append([int(c) for c in cells[:width]])
        scores.append(float(cells[width]))
    return np.array(values, dtype=np.uint8).reshape(-1, width), np.array(scores)


def check_mpe(
    path: Path, source: np.ndarray, observed: np.ndarray, log_density, exact: bool
) -> list:
    """Each completion keeps its evidence cells and its printed score is
    the library log-density of the completion.  For an exact MPE the score
    is also at least the density of the row the evidence was cut from.

    `log_density` maps a (rows, vars) 0/1 matrix to per-row log densities.
    """
    try:
        values, scores = _read_mpe(path, source.shape[1])
    except ValueError as exc:
        return [str(exc)]
    if len(values) != len(source):
        return [f"mpe wrote {len(values)} rows, expected {len(source)}"]
    problems = []
    bad = np.flatnonzero(((values != source) & observed).any(axis=1))
    if bad.size:
        problems.append(f"mpe row {int(bad[0])} contradicts its evidence")
    density = log_density(values)
    for i, (s, d) in enumerate(zip(scores, density)):
        if not _close(s, d):
            problems.append(f"mpe row {i} score {s!r} is not its log-density {d!r}")
            break
    if exact:
        floor = log_density(source)
        below = np.flatnonzero(scores < floor - TOL * np.maximum(1.0, np.abs(floor)))
        if below.size:
            i = int(below[0])
            problems.append(
                f"mpe row {i} score {scores[i]!r} is below the source row's "
                f"{floor[i]!r}"
            )
    return problems

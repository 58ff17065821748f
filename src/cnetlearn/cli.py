"""Command-line interface.

Subcommands: learn, learn-mixture, eval, sample, mpe, bench.  All output
is stable `key=value` lines; floats are printed with full round-trip
precision.  Exit codes: 0 success, 2 usage or data errors, 1 anything
unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from .circuit import circuit_log_values, compile_cnet
from .cnet import (
    CutsetNetwork,
    LearnerConfig,
    cnet_mpe,
    cnet_sample,
    learn_cnet,
    walk,
)
from .data import DatasetError, WeightedDataset, _read_cells, load_csv, save_csv
from .mixture import (
    Mixture,
    learn_sem,
    log_density_rows,
    mean_log_likelihood,
    mixture_log_density_rows,
)
from .scores import BD, BIC, ScoreConfig, bd_cnet, bic_cnet, structure_param_count
from .serialize import load_model, save_model

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(**kv) -> None:
    print(" ".join(f"{k}={_fmt(v)}" for k, v in kv.items()))


def _score_config(args) -> ScoreConfig:
    return ScoreConfig(kind=args.score, alpha=args.alpha, beta=args.beta)


def _learner_config(args) -> LearnerConfig:
    return LearnerConfig(score=_score_config(args), lam=args.lam)


def _add_learn_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--score", choices=[BD, BIC], default=BD)
    p.add_argument("--alpha", type=float, default=0.1, help="Dirichlet strength")
    p.add_argument("--beta", type=float, default=0.01, help="Laplace smoothing")
    p.add_argument(
        "--lam",
        type=int,
        default=10,
        help="candidate variables scored exactly per leaf",
    )


def _net_score(net: CutsetNetwork, d: WeightedDataset, score: ScoreConfig) -> float:
    if score.kind == BD:
        return bd_cnet(net, d, score.alpha)
    cfg = dataclasses.replace(score, root_dataset_size=d.total_weight)
    return bic_cnet(net, d, cfg)


def cmd_learn(args) -> int:
    d = load_csv(args.train)
    cfg = _learner_config(args)
    t0 = time.perf_counter()
    net = learn_cnet(d, cfg)
    elapsed = time.perf_counter() - t0
    provenance = {
        "command": "learn",
        "train": str(args.train),
        "score": args.score,
        "alpha": args.alpha,
        "beta": args.beta,
        "lam": args.lam,
        "time_s": round(elapsed, 6),
    }
    save_model(args.out, net, cfg.score, provenance)
    _emit(rows=d.n_rows, vars=d.n_vars)
    kinds = [node.kind for node, _ in walk(net.root)]
    decisions, leaves = kinds.count("decision"), kinds.count("leaf")
    _emit(decisions=decisions, leaves=leaves, params=structure_param_count(net))
    _emit(score=_net_score(net, d, cfg.score))
    _emit(train_ll_per_sample=mean_log_likelihood(net, d))
    _emit(time_s=round(elapsed, 6))
    _emit(model=str(args.out))
    return 0


def _parse_components(text: str) -> list:
    try:
        ks = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError as exc:
        raise DatasetError(f"bad --components list {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise DatasetError(f"bad --components list {text!r}")
    return ks


def cmd_learn_mixture(args) -> int:
    d = load_csv(args.train)
    ks = _parse_components(args.components)
    if len(ks) > 1 and not args.valid:
        raise DatasetError("selecting among several --components needs --valid")
    d_valid = load_csv(args.valid) if args.valid else None
    cfg = _learner_config(args)

    best = None  # (valid or train ll, K, model, time)
    for k in ks:
        rng = np.random.default_rng(args.seed)
        t0 = time.perf_counter()
        model = learn_sem(d, k, cfg, rng, max_iters=args.max_iters, tol=args.tol)
        elapsed = time.perf_counter() - t0
        train_ll = mean_log_likelihood(model, d)
        select_ll = train_ll
        if d_valid is not None:
            valid_ll = mean_log_likelihood(model, d_valid)
            select_ll = valid_ll
            _emit(
                K=k,
                train_ll=train_ll,
                valid_ll=valid_ll,
                time_s=round(elapsed, 6),
            )
        else:
            _emit(K=k, train_ll=train_ll, time_s=round(elapsed, 6))
        if best is None or select_ll > best[0]:
            best = (select_ll, k, model, elapsed)

    _, chosen_k, model, chosen_time = best
    provenance = {
        "command": "learn-mixture",
        "train": str(args.train),
        "valid": str(args.valid) if args.valid else None,
        "components": chosen_k,
        "score": args.score,
        "alpha": args.alpha,
        "beta": args.beta,
        "lam": args.lam,
        "seed": args.seed,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "time_s": round(chosen_time, 6),
    }
    save_model(args.out, model, cfg.score, provenance)
    _emit(selected_K=chosen_k)
    _emit(model=str(args.out))
    return 0


def _check_data_scope(model, d: WeightedDataset) -> None:
    if d.n_vars != model.n_vars:
        raise DatasetError(
            f"dataset has {d.n_vars} variables, model expects {model.n_vars}"
        )


def cmd_eval(args) -> int:
    model, _, _ = load_model(args.model)
    d = load_csv(args.data)
    _check_data_scope(model, d)
    if args.via_circuit:
        rows = circuit_log_values(compile_cnet(model), d.samples)
    else:
        rows = log_density_rows(model, d.samples)
    total = float(d.weights @ rows)
    _emit(n=d.n_rows, total_ll=total, mean_ll=total / d.total_weight)
    if args.via_circuit:
        _emit(via="circuit")
    return 0


def _sample(model, n: int, rng: np.random.Generator) -> np.ndarray:
    if not isinstance(model, Mixture):
        return cnet_sample(model, n, rng)
    which = rng.choice(model.n_components, size=n, p=model.mix_weights)
    out = np.empty((n, model.n_vars), dtype=np.uint8)
    for k, comp in enumerate(model.components):
        rows = which == k
        out[rows] = cnet_sample(comp, int(rows.sum()), rng)
    return out


def cmd_sample(args) -> int:
    model, _, _ = load_model(args.model)
    if args.n < 1:
        raise DatasetError("need at least one sample")
    out = _sample(model, args.n, np.random.default_rng(args.seed))
    save_csv(WeightedDataset(out, np.ones(args.n), model.variable_ids), args.out)
    _emit(wrote=str(args.out), n=args.n)
    return 0


def _model_mpe(model, evidence: np.ndarray) -> tuple:
    if not isinstance(model, Mixture):
        return cnet_mpe(model, evidence)
    # maximize each component; per row, keep the first completion the
    # mixture likes best
    found = np.stack([cnet_mpe(comp, evidence)[0] for comp in model.components])
    scores = np.stack([mixture_log_density_rows(model, v) for v in found])
    best, rows = scores.argmax(axis=0), np.arange(len(evidence))
    return found[best, rows], scores[best, rows]


def cmd_mpe(args) -> int:
    model, _, _ = load_model(args.model)
    evidence = _read_cells(args.evidence, free="?")
    if evidence.shape[1] != model.n_vars:
        raise DatasetError(
            f"{args.evidence}: evidence rows have {evidence.shape[1]} cells, "
            f"model expects {model.n_vars}"
        )
    values, scores = _model_mpe(model, evidence)
    with open(args.out, "w") as fh:
        fh.writelines(
            ",".join(map(str, row)) + f",{score!r}\n"
            for row, score in zip(values.tolist(), scores.tolist())
        )
    _emit(wrote=str(args.out), n=len(values))
    return 0


def cmd_bench(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise DatasetError(f"{root} is not a directory")
    train_files = sorted(root.glob("*.ts.data"))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or any(m not in (BD, BIC) for m in methods):
        raise DatasetError(f"bad --methods list {args.methods!r}")

    results = []
    for train_path in train_files:
        name = train_path.name[: -len(".ts.data")]
        test_path = root / f"{name}.test.data"
        if not test_path.exists():
            raise DatasetError(f"missing test split {test_path}")
        d_train = load_csv(train_path)
        d_test = load_csv(test_path)
        for method in sorted(methods):
            score = ScoreConfig(kind=method, alpha=args.alpha, beta=args.beta)
            cfg = LearnerConfig(score=score, lam=args.lam)
            t0 = time.perf_counter()
            net = learn_cnet(d_train, cfg)
            elapsed = time.perf_counter() - t0
            mean_ll = mean_log_likelihood(net, d_test)
            params = structure_param_count(net)
            results.append((name, method, elapsed, mean_ll, params))
            _emit(
                dataset=name,
                method=method,
                train_time_s=round(elapsed, 6),
                test_ll_per_sample=mean_ll,
                params=params,
            )

    with open(args.out, "w") as fh:
        fh.write("dataset,method,train_time_s,test_ll_per_sample,params\n")
        for name, method, elapsed, mean_ll, params in results:
            fh.write(f"{name},{method},{elapsed:.6f},{mean_ll!r},{params}\n")
    _emit(wrote=str(args.out))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnetlearn",
        description="Learn and query cutset networks over binary data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn one cutset network")
    p.add_argument("train", help="training CSV of 0/1 rows")
    _add_learn_args(p)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("learn-mixture", help="learn a mixture by structural EM")
    p.add_argument("train")
    _add_learn_args(p)
    p.add_argument("--valid", help="validation CSV for choosing K")
    p.add_argument(
        "--components",
        default="2",
        help="comma-separated component counts to try (best kept)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn_mixture)

    p = sub.add_parser("eval", help="average log-likelihood of a dataset")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument(
        "--via-circuit",
        action="store_true",
        help="evaluate through the compiled circuit instead",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw samples from a model")
    p.add_argument("model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "mpe",
        help="most probable completions of evidence rows",
        description="Exact for one network; for a mixture, a heuristic: the "
        "best of the per-component MPEs, not the exact mixture MPE.",
    )
    p.add_argument("model")
    p.add_argument("evidence", help="CSV with cells 0, 1, or ?")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mpe)

    p = sub.add_parser("bench", help="run the learners over dataset triplets")
    p.add_argument("dir", help="directory of <name>.ts.data/.test.data files")
    p.add_argument("--methods", default="bd,bic")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--lam", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, not a usage problem
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

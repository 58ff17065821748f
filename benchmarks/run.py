"""Benchmark: one user's session through the cnetlearn CLI.

    python3 benchmarks/run.py --workload audio-dense --seed 1 --seconds 38 --trace 0

Run it from anywhere inside a checkout; it builds nothing and reads the
package from `src/`.  One process runs one workload as a closed loop with
a single client and starts no threads or processes of its own.  It
generates the workload's seeded data, then, through `cnetlearn.cli.main`,
alternates one `learn` (or `learn-mixture`) with rounds of `eval`,
`eval --via-circuit`, `sample` and `mpe` for half as long as the learn
took, until `--seconds` have passed since the first command; it learns
again only if the time left holds another learn, else it runs rounds to
the end.  In a round, a query command repeats until it has run for a
tenth of a second.  `setup_s` is the import time plus the median of
five data set-ups.  The timings are taken at their slow end: `learn_s`
is the slowest of the run's learns, and each `*_rows_per_s` the rows
per second of the command of that kind at the 75th percentile of their
durations.  The machine switches every few seconds between two speeds
about 1.7 times apart, and the share of fast time differs from run to
run; the slow end is what every run sees, so it repeats, where a median
flips between the two speeds.  Every command's output is checked; a
non-zero exit, a failed check or running over the time budget is a
failed operation.

With `--trace 0` it prints the end-to-end metrics.  With `--trace 1` it
learns once untraced, then wraps every public function of each
`cnetlearn` module (see spans.py), learns again and runs each query
command exactly once, and prints the per-layer metrics, so every count
is the same on any machine.  A per-layer `rows` is the rows of the
dataset or matrix a call received, summed over calls; `circuit.nodes` is
the node count of one compiled circuit, averaged over compiles.  The
metrics of a function that no longer exists are left out and the
function is listed as absent in the result file.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record, with
the machine and the determinism digest, goes to `.bench_results/`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import (  # noqa: E402
    check_eval_agreement,
    check_mpe,
    check_same_bytes,
    check_sample,
    model_digest,
    parse_kv,
)
from gen import N_SAMPLE, WORKLOADS, write_inputs  # noqa: E402
from spans import Tracer, layer_stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

BUDGET_S = 150.0  # per workload process; over it, the operation times out
SETUP_REPEATS = 5
MIN_SAMPLE_S = 0.1  # a query command repeats in a round until this long
# after each learn, query rounds run for this share of the learn's time;
# a learn is one sample and a round several, so learns get most of the run
QUERY_SHARE = 0.5
CIRCUIT = "circuit_eval_rows_per_s"


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run prints, as BENCHMARK.json lists
    them: the per-layer ones for a traced run, else the end-to-end ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class BudgetExceeded(BaseException):
    """Raised by the alarm; a BaseException so the CLI's own handlers do
    not turn it into an exit code."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


class Session:
    """Counts operations and the failures attached to them."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer = None  # records spans only while a command runs
        self.ops: list = []  # operation names, in order
        self.failures: list = []  # (operation index, message)

    def start(self, op: str) -> None:
        self.ops.append(op)

    def fail(self, message: str) -> None:
        self.failures.append((len(self.ops) - 1, message))
        print(f"FAIL {self.ops[-1]}: {message}", file=sys.stderr)

    def fail_all(self, problems: list) -> None:
        for p in problems:
            self.fail(p)

    @property
    def failed(self) -> int:
        return len({i for i, _ in self.failures})

    def command(self, op: str, argv: list) -> tuple:
        """Run one CLI command in process; returns (parsed stdout or None
        on a non-zero exit, wall seconds)."""
        self.start(op)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None:
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                code = self.cli.main([str(a) for a in argv])
            finally:
                elapsed = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.active = False
        if code != 0:
            self.fail(f"exit code {code}: {err.getvalue().strip()}")
            return None, elapsed
        return parse_kv(out.getvalue()), elapsed


def _blas_info(np) -> dict:
    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: ") :]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cnetlearn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(np, workload: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


def _learn(s: Session, w, inputs, model: Path) -> float | None:
    argv = [w.learn_argv[0], inputs.train, *w.learn_argv[1:], "--out", model]
    kv, elapsed = s.command(w.learn_argv[0], argv)
    return None if kv is None else elapsed


def _check_model(s: Session, model: Path, scratch: Path) -> tuple:
    """load -> save must give back the same bytes; returns (model, digest)."""
    from cnetlearn.serialize import load_model, save_model

    loaded, score, provenance = load_model(model)
    save_model(scratch, loaded, score, provenance)
    s.fail_all(check_same_bytes(model, scratch))
    return loaded, model_digest(model)


def _timed(s: Session, op: str, argv: list) -> tuple:
    """Repeat one command until MIN_SAMPLE_S have passed; returns (parsed
    stdout of the last run or None, each run's seconds)."""
    times: list = []
    while sum(times) < MIN_SAMPLE_S:
        kv, t = s.command(op, argv)
        times.append(t)
        if kv is None:
            return None, times
    return kv, times


def _once(s: Session, op: str, argv: list) -> tuple:
    """Run one command once; returns what `_timed` returns."""
    kv, t = s.command(op, argv)
    return kv, [t]


def _query_round(
    s: Session,
    w,
    seed: int,
    inputs,
    model: Path,
    ctx: dict,
    run=_timed,
    circuit: bool = True,
) -> dict:
    """eval, eval --via-circuit (if `circuit`), sample and mpe, each taken
    by `run`, with their output checks; returns (rows per command, each
    command's seconds) per rate metric."""
    rates = {}
    n_test = len(inputs.test_rows)
    kv, times = run(s, "eval", ["eval", model, inputs.test])
    direct = None
    if kv is not None:
        direct = float(kv["mean_ll"])
        rates["eval_rows_per_s"] = (n_test, times)
        if ctx.setdefault("test_ll", direct) != direct:
            s.fail(f"mean_ll {direct!r} changed from {ctx['test_ll']!r}")

    argv = ["eval", model, inputs.test, "--via-circuit"]
    kv, times = run(s, "eval --via-circuit", argv) if circuit else (None, None)
    if kv is not None:
        rates[CIRCUIT] = (n_test, times)
        if direct is not None:
            s.fail_all(check_eval_agreement(direct, float(kv["mean_ll"])))

    out = ctx["dir"] / "sample.csv"
    argv = ["sample", model, "--n", N_SAMPLE, "--seed", seed, "--out", out]
    kv, times = run(s, "sample", argv)
    if kv is not None:
        rates["sample_rows_per_s"] = (N_SAMPLE, times)
        s.fail_all(check_sample(out, N_SAMPLE, w.n_vars))
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if ctx.setdefault("sample_sha256", digest) != digest:
            s.fail("sample output changed between rounds with the same seed")

    out = ctx["dir"] / "mpe.csv"
    kv, times = run(s, "mpe", ["mpe", model, inputs.evidence, "--out", out])
    if kv is not None:
        rates["mpe_rows_per_s"] = (len(inputs.evidence_source), times)
        s.fail_all(
            check_mpe(
                out,
                inputs.evidence_source,
                inputs.evidence_mask,
                ctx["log_density"],
                exact=ctx["exact_mpe"],
            )
        )
    return rates


def _check_determinism(s: Session, key: str, digest: str, test_ll) -> None:
    """Same workload and seed must give the same model and test_ll as every
    earlier run in this checkout."""
    s.start("determinism")
    record = {"model_sha256": digest, "test_ll": test_ll}
    path = RESULTS / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != record:
        s.fail(f"{key}: {record} differs from an earlier run's {known[key]}")
    known.setdefault(key, record)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def _per_layer(tracer, installed: list, learn_s: float, traced_learn_s: float) -> tuple:
    """Per-layer metrics; those of a function that is no longer installed
    are left out, and the function is listed as absent."""
    stats = layer_stats(tracer.spans)
    metrics, absent = {}, []
    for name in metric_units(trace=True):
        span, _, key = name.rpartition(".")
        if "." not in span:
            continue  # derived below
        if span not in installed:
            absent.append(span)
            continue
        metrics[name] = stats.get(span, {}).get(key, 0)
    if "cnet.learn_cnet" in installed:
        cuts = tracer.counts.get("cnet.learn_cnet", 0)
        calls = stats.get("scores.evaluate_cut", {}).get("calls", 0)
        metrics["cnet.accepted_cuts"] = cuts
        metrics["cnet.cut_accept_ratio"] = cuts / calls if calls else None
    compiles = stats.get("circuit.compile_cnet", {}).get("calls", 0)
    if compiles:  # the node count of one compiled circuit, on average
        metrics["circuit.nodes"] = tracer.counts["circuit.compile_cnet"] / compiles
    metrics["trace.overhead_ratio"] = traced_learn_s / learn_s
    roots = stats.get("cli.main", {"self_s": 0.0, "total_s": 0.0})
    metrics["trace.unattributed_share"] = (
        roots["self_s"] / roots["total_s"] if roots["total_s"] else 0.0
    )
    return metrics, sorted(set(absent)), stats


def _count_decisions(net) -> int:
    stack, n = [net.root], 0
    while stack:
        node = stack.pop()
        if node.kind != "leaf":
            n += 1
            stack.extend(node.children)
    return n


def _session(
    s: Session, w, seed: int, seconds: float, trace: bool, work: Path, record: dict
):
    """Set up in `work`, learn, run the query rounds; returns the metrics."""
    from cnetlearn.cnet import cnet_log_density_rows
    from cnetlearn.mixture import Mixture, mixture_log_density_rows

    s.start("setup")
    import_s = time.perf_counter() - T_START
    gen_s = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = write_inputs(w, seed, work / f"inputs{i}")
        gen_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(gen_s)

    model = work / "model.json"
    t_learn = time.perf_counter()
    learn_s = _learn(s, w, inputs, model)
    if learn_s is None:
        return {}
    loaded, digest = _check_model(s, model, work / "model.resaved.json")
    record["model"] = {"sha256": digest, "bytes": model.stat().st_size}
    ctx = {"dir": work, "exact_mpe": not isinstance(loaded, Mixture)}
    if ctx["exact_mpe"]:
        record["model"]["decisions"] = _count_decisions(loaded)
        ctx["log_density"] = lambda x: cnet_log_density_rows(loaded, x)
    else:
        ctx["log_density"] = lambda x: mixture_log_density_rows(loaded, x)

    rounds = record["rounds"] = []
    if trace:
        s.tracer = Tracer(
            run_id=f"{w.name}/{seed}/{os.getpid()}",
            counters={
                "cnet.learn_cnet": _count_decisions,
                "circuit.compile_cnet": lambda c: len(c.nodes),
            },
        )
        installed = s.tracer.install()
        traced_model = work / "model.traced.json"
        traced_learn_s = _learn(s, w, inputs, traced_model)
        if traced_learn_s is None:
            return {}
        if _check_model(s, traced_model, work / "model.traced.resaved.json")[1] != digest:
            s.fail("the traced learn gave a different model")
        rounds.append(_query_round(s, w, seed, inputs, model, ctx, run=_once))
        s.tracer.uninstall()
        metrics, record["absent"], record["layers"] = _per_layer(
            s.tracer, installed, learn_s, traced_learn_s
        )
        metrics["serialize.model_bytes"] = model.stat().st_size
    else:
        # alternate learns with query rounds, so both sample the machine
        # over the whole run
        deadline = t_learn + seconds
        learns, t0 = [learn_s], time.perf_counter()
        circuit_s = other_s = 0.0
        while True:
            # the circuit eval sits out while it has taken longer than the
            # other commands together, so a slow circuit does not crowd
            # out their samples
            last = _query_round(
                s, w, seed, inputs, model, ctx, circuit=circuit_s <= other_s
            )
            rounds.append(last)
            for name, (_, times) in last.items():
                if name == CIRCUIT:
                    circuit_s += sum(times)
                else:
                    other_s += sum(times)
            now = time.perf_counter()
            if now >= deadline:
                break
            if now - t0 < QUERY_SHARE * learns[-1] or now + learns[-1] > deadline:
                continue
            again = work / "model.again.json"
            learn_s = _learn(s, w, inputs, again)
            if learn_s is None:
                return {}
            learns.append(learn_s)
            if model_digest(again) != digest:
                s.fail("a second learn on the same data gave a different model")
            t0 = time.perf_counter()
        record["learn_s"] = learns
        metrics = {
            "setup_s": setup_s,
            "learn_s": max(learns),
            "test_ll": ctx.get("test_ll"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name in metric_units(trace=False):
            if name.endswith("_per_s"):
                done = [r[name][0] / t for r in rounds if name in r for t in r[name][1]]
                if len(done) > 1:
                    metrics[name] = statistics.quantiles(done, n=4, method="inclusive")[0]
                elif done:
                    metrics[name] = done[0]
    _check_determinism(s, f"{w.name}/{seed}", digest, ctx.get("test_ll"))
    return metrics


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from cnetlearn import cli

    w = WORKLOADS[args.workload]
    s = Session(cli)
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    record = {"environment": _environment(np, w.name, args.seed)}
    metrics: dict = {}
    signal.signal(signal.SIGALRM, _on_alarm)
    remaining = BUDGET_S - (time.perf_counter() - T_START)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, remaining))
    try:
        metrics = _session(s, w, args.seed, args.seconds, bool(args.trace), work, record)
    except BudgetExceeded:
        s.fail(f"timeout: over the {BUDGET_S:.0f} s budget")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if s.tracer is not None:
            s.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if s.tracer is not None:
        _write_spans(s.tracer, w.name, args.seed)
    return _finish(record, s, metrics, trace=bool(args.trace))


def _write_spans(tracer, workload: str, seed: int) -> None:
    path = RESULTS / f"{workload}-seed{seed}.spans.jsonl"
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.run_id, sp.rows]))
            fh.write("\n")


def _finish(record: dict, s: Session, metrics: dict, trace: bool) -> dict:
    units = metric_units(trace)
    result = {
        "correct": s.failed == 0,
        "attempted": len(s.ops),
        "failed": s.failed,
        "metrics": {
            k: {"value": metrics[k], "unit": units[k]}
            for k in units
            if metrics.get(k) is not None
        },
    }
    record.update(
        result=result,
        error_rate=s.failed / max(1, len(s.ops)),
        operations=s.ops,
        failures=[[s.ops[i], msg] for i, msg in s.failures],
    )
    env = record["environment"]
    kind = "trace" if trace else "e2e"
    path = RESULTS / f"{env['workload']}-seed{env['seed']}-{kind}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cnetlearn" / "__init__.py").is_file():
        print(f"error: no cnetlearn package under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

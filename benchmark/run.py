"""ellreg benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 benchmark/run.py --workload mols_fine --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` of the tree this file sits in, with
BLAS and OpenMP pinned to one thread. One process runs a closed loop: one
solve at a time, each started when the previous one returns. A pass is the
workload's fixed list of solves (see workloads.py); passes run until the
next one would end after ``--seconds``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every pass
twice, untraced and with every layer traced, checks that both give
bit-identical outputs, and prints the per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A run
record and, when traced, the spans are written to ``benchmark/out/``.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# time `import ellreg` in a fresh interpreter
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ellreg; "
                "print(time.perf_counter() - t); print(ellreg.__file__)")


class BenchmarkError(RuntimeError):
    pass


def import_ellreg():
    """Import ellreg from this tree's src/, never from an installed copy."""
    if not (SRC / "ellreg" / "__init__.py").is_file():
        raise BenchmarkError(f"no ellreg package under {SRC}")
    sys.path.insert(0, str(SRC))
    ellreg = importlib.import_module("ellreg")
    if Path(ellreg.__file__).resolve().parent != (SRC / "ellreg").resolve():
        raise BenchmarkError(f"ellreg imported from {ellreg.__file__}, not {SRC}")
    importlib.import_module("ellreg.experiments")  # the package does not import it
    return ellreg


def time_import() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        raise BenchmarkError(f"timed import failed: {proc.stderr.strip()}")
    if Path(lines[1]).resolve().parent != (SRC / "ellreg").resolve():
        raise BenchmarkError(f"timed import loaded {lines[1]}")
    return float(lines[0])


def measure_setup(workload) -> list:
    """Set-up samples: import in a fresh interpreter, then the problem builds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t_import = time_import()
        t0 = time.perf_counter()
        workload.setup()
        samples.append(t_import + time.perf_counter() - t0)
    return samples


def budgeted(budget_s):
    """Pass indices 0, 1, ... while the next pass is expected to end in budget.

    The first pass always runs.
    """
    t_start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if k > 0 and elapsed + elapsed / k > budget_s:
            return
        yield k
        k += 1


def run_pass(workload, seed, k) -> dict:
    """Solve pass k one solve at a time; checks run outside the timed solves."""
    solves = []
    for item in workload.inputs(seed, k):
        t0 = time.perf_counter()
        result = workload.solve(item)
        dt = time.perf_counter() - t0
        check = workload.check(item, result)
        solves.append({"s": dt, "ok": check.ok, "reason": check.reason,
                       "values": check.values,
                       "fingerprint": workload.fingerprint(result),
                       **workload.optimizer_counts(result)})
        del result
    return {"pass": k, "wall_s": sum(s["s"] for s in solves), "solves": solves,
            "peak_rss_mb": _peak_rss_mb()}


def run_traced(workload, seed, budget_s, tracer):
    """Run every pass twice, untraced and traced, first one way round then the other.

    Alternating the order keeps slow machine phases and first-pass warm-up
    from reading as tracing overhead.
    """
    untraced, traced = [], []
    for k in budgeted(budget_s):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            try:
                (traced if on else untraced).append(run_pass(workload, seed, k))
            finally:
                if on:
                    tracer.restore()
    return untraced, traced


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _solves(passes):
    return [s for p in passes for s in p["solves"]]


def _median_value(solves, key) -> float:
    vals = [s["values"][key] for s in solves if key in s["values"]]
    return float(statistics.median(vals)) if vals else 0.0


def end_to_end(passes, setup_samples) -> dict:
    solves = _solves(passes)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.mean(p["wall_s"] for p in passes),
        "solve_s.p50": statistics.median(s["s"] for s in solves),
    }


def per_layer(summary, untraced, traced, names) -> dict:
    n_pass = len(traced)
    metrics = {}
    for name in names:
        for suffix, table in ((".calls", summary["calls"]), (".s", summary["s"])):
            if name.endswith(suffix):
                metrics[name] = table.get(name[: -len(suffix)], 0) / n_pass
        if name.endswith(".self_s"):
            metrics[name] = summary["self_s"][name[: -len(".self_s")]] / n_pass
    solves = _solves(traced)
    steps = sum(s["newton_steps"] for s in solves)
    accepted = sum(s["accepted_steps"] for s in solves)
    evaluations = summary["calls"].get("optimizer.operator", 0)
    hess = sum(summary["calls"].get(f"objectives.{k}_hessian_action", 0)
               for k in ("ols", "mols"))
    metrics.update({
        "forward.lu_fill_nnz": summary["lu_fill_nnz"],
        "optimizer.newton_iters": steps / n_pass,
        "optimizer.evaluations": evaluations / n_pass,
        "optimizer.accept_ratio": accepted / evaluations if evaluations else 0.0,
        "optimizer.hess_per_iter": hess / steps if steps else 0.0,
        "experiments.rel_l2_a": _median_value(solves, "rel_l2_a"),
        "experiments.rel_l2_u": _median_value(solves, "rel_l2_u"),
        "setvalued.fcd_residual": _median_value(solves, "fcd_residual"),
        "failed_share": sum(not s["ok"] for s in solves) / len(solves),
        # untraced, through set-up and the first pass: later passes add only
        # allocator fragmentation
        "peak_rss_mb": untraced[0]["peak_rss_mb"],
        "trace.overhead_s": (sum(p["wall_s"] for p in traced)
                             - sum(p["wall_s"] for p in untraced)) / n_pass,
    })
    return metrics


def machine_record(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        ellreg = import_ellreg()
    except (ImportError, BenchmarkError) as err:
        print(f"benchmark: cannot import ellreg from {SRC}: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ellreg)
    setup_samples = measure_setup(workload)

    if args.trace == 0:
        passes = [run_pass(workload, args.seed, k) for k in budgeted(args.seconds)]
        metrics = end_to_end(passes, setup_samples)
        runs = {"untraced": passes}
        declared = spec["end_to_end"]
        consistent = True
    else:
        tracer = Tracer()
        untraced, traced = run_traced(workload, args.seed, args.seconds, tracer)
        declared = spec["per_layer"]
        metrics = per_layer(tracer.summary(), untraced, traced,
                            [m["name"] for m in declared])
        runs = {"untraced": untraced, "traced": traced}
        # tracing must not change a single bit of the outputs
        consistent = ([s["fingerprint"] for s in _solves(untraced)]
                      == [s["fingerprint"] for s in _solves(traced)])
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv")

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    solves = [s for phase in runs.values() for s in _solves(phase)]
    attempted = len(solves)
    failed = sum(not s["ok"] for s in solves)
    # single failures are counted, not hidden; a majority means a broken program
    correct = consistent and 2 * failed <= attempted

    for m in declared:
        print(f"{m['name']:44s} {metrics[m['name']]:14.6g} {m['unit']}")
    n_solves = len(_solves(runs["untraced"]))
    print(f"# passes {len(runs['untraced'])}, solves per phase {n_solves}, "
          f"setup samples {len(setup_samples)}")
    for s in solves:
        if not s["ok"]:
            print(f"# failed solve: {s['reason']}")
    if not consistent:
        print("# traced outputs differ from untraced outputs")

    record = {
        "machine": machine_record(args),
        "setup_samples_s": setup_samples,
        "passes": {phase: [{**p, "solves": [{k: v for k, v in s.items() if k != "fingerprint"}
                                             for s in p["solves"]]}
                           for p in ps]
                   for phase, ps in runs.items()},
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for the reconstruction experiments and probes.

Each subcommand takes only the flags its handler reads. Exit codes: 0
success; 2 when the failure demo's reconstruction fails (a singular system
or no convergence); 1 anything else, usage errors included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments as exp
from .forward import default_schedule
from .setvalued import ContingentProbe


_FLAGS = {
    "n": dict(type=int, default=None, help="mesh subdivisions per side"),
    "kappa": dict(type=float, default=1e-4),
    "eps": dict(type=float, default=1e-4),
    "delta": dict(type=float, default=None, help="one noise level (default: 1e-1, 1e-2, 1e-3)"),
    "seed": dict(type=int, default=0),
    "objective": dict(choices=["ols", "mols"], default="ols"),
    "out": dict(type=str, default="."),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="ellreg")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        # no abbreviations: a flag is accepted only spelled in full
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def _run_table(args, out_name, **fields):
    """Table from the flags and ``fields``; ``--n`` wins over ``fields``' mesh sizes."""
    cfg = exp.ExperimentConfig(kappa=args.kappa, eps=args.eps, **fields)
    if args.n is not None:
        cfg.mesh_sizes = (args.n,)
    rows = exp.run_table(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / out_name
    exp.write_table_csv(rows, path, cfg)
    for r in rows:
        print(f"{cfg.label_column}={r.label}  rel_l2_a={r.rel_l2_a:.2e}  "
              f"rel_l2_u={r.rel_l2_u:.2e}  rel_linf_a={r.rel_linf_a:.2e}  "
              f"rel_linf_u={r.rel_linf_u:.2e}  iters={r.iterations}  "
              f"wall={r.wall_time:.2f}s")
    print(f"wrote {path}")
    return 0


def _cmd_table1(args):
    return _run_table(args, "table1.csv", objective="ols")


def _cmd_table2(args):
    return _run_table(args, "table2.csv", objective="mols")


def _cmd_table3(args):
    deltas = (1e-1, 1e-2, 1e-3) if args.delta is None else (args.delta,)
    return _run_table(args, "table3.csv", objective=args.objective, deltas=deltas,
                      mesh_sizes=(80,), seed=args.seed)


def _cmd_failure(args):
    n = args.n if args.n is not None else 60
    cfg = exp.ExperimentConfig(objective=args.objective, kappa=args.kappa, eps=args.eps)
    report = exp.run_failure_demo(cfg, n=n)
    print(f"status: {report['status']}")
    print(f"condition estimate: {report['condition_estimate']:.3e}")
    if report["status"] == "failed":
        print(f"reason: {report['reason']}")
        return 2
    return 0


def _cmd_probe(args):
    n = args.n if args.n is not None else 20
    prob = exp.ManufacturedProblem.build(n)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    dA = rng.uniform(-1.0, 1.0, size=prob.mesh.node_count)
    probe = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA,
                            schedule=default_schedule())
    probe.run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "probe.csv"
    probe.write_csv(path)
    rep = probe.boundedness_report()
    for r in probe.records:
        print(f"eps={r.eps:.3e}  residual_fcd={r.residual_fcd:.3e}  "
              f"residual_scd={r.residual_scd:.3e}  sens_norm={r.sens_norm:.3e}")
    print(f"state-gap rate: {rep['state_gap_rate']:.3f}  "
          f"sup sens: {rep['sup_sens_norm']:.3e}")
    print(f"wrote {path}")
    return 0


def _cmd_check_gradients(args):
    from . import objectives as obj, oracles
    from .forward import RegularizedForwardOperator

    n = args.n if args.n is not None else 4
    prob = exp.ManufacturedProblem.build(n)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    ok = True
    for trial in range(5):
        A = rng.uniform(0.5, 2.0, size=prob.mesh.node_count)
        op = RegularizedForwardOperator(prob.mesh, A, eps=args.eps)
        V = op.solve(prob.P)
        g_dir = oracles.ols_gradient_direct(op, V, prob.Z)
        w = obj.ols_adjoint_state(op, V, prob.Z)
        g_adj = op.L(V).T @ w
        rel = np.linalg.norm(g_dir - g_adj) / max(np.linalg.norm(g_dir), 1e-300)
        print(f"trial {trial}: adjoint/direct gradient relative gap {rel:.3e}")
        ok = ok and rel < 1e-10
    print("gradient routes agree" if ok else "GRADIENT ROUTE MISMATCH")
    return 0 if ok else 1


_COMMANDS = {  # handler and the flags it reads
    "table1": (_cmd_table1, ("n", "kappa", "eps", "out")),
    "table2": (_cmd_table2, ("n", "kappa", "eps", "out")),
    "table3": (_cmd_table3, ("n", "kappa", "eps", "delta", "seed", "objective", "out")),
    "failure": (_cmd_failure, ("n", "kappa", "eps", "objective")),
    "probe": (_cmd_probe, ("n", "seed", "out")),
    "check-gradients": (_cmd_check_gradients, ("n", "eps", "seed")),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except SystemExit as stop:  # only argparse exits: 0 after --help, 2 on a usage error
        return 1 if stop.code else 0
    except Exception as err:  # any unexpected error maps to exit code 1
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

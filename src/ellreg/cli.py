"""Command-line entry point for the reconstruction experiments and probes.

Exit codes: 0 success, 2 expected structured failure (the singular-system
demo), 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments as exp
from .forward import default_schedule
from .setvalued import ContingentProbe


def _parse_config_file(path):
    """Simple key=value file; blank lines and '#' comments ignored."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        values[key] = val
    return values


_CONFIG_TYPES = {"n": int, "seed": int, "kappa": float, "eps": float,
                 "delta": float, "objective": str, "out": str}


def _apply_config(args, path):
    """Config-file values take precedence over command-line flags."""
    for key, val in _parse_config_file(path).items():
        if key not in _CONFIG_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        setattr(args, key, _CONFIG_TYPES[key](val))
    return args


def _add_common(p):
    p.add_argument("--n", type=int, default=None, help="mesh subdivisions per side")
    p.add_argument("--kappa", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objective", choices=["ols", "mols"], default="ols")
    p.add_argument("--out", type=str, default=".")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file; entries override flags")


def build_parser():
    ap = argparse.ArgumentParser(prog="ellreg")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("table1", "table2", "table3", "failure",
                 "probe-fcd", "probe-scd", "check-gradients"):
        _add_common(sub.add_parser(name))
    return ap


def _table_config(args, **overrides):
    """Config from the flags; ``overrides`` win over them, ``--n`` over both."""
    values = dict(objective=args.objective, kappa=args.kappa, eps=args.eps,
                  seed=args.seed)
    cfg = exp.ExperimentConfig(**{**values, **overrides})
    if args.n is not None:
        cfg.mesh_sizes = (args.n,)
    return cfg


def _run_table(args, out_name, label_name="h", **overrides):
    cfg = _table_config(args, **overrides)
    rows = exp.run_table(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / out_name
    exp.write_table_csv(rows, path, cfg, label_name=label_name)
    for r in rows:
        print(f"{label_name}={r.label}  rel_l2_a={r.rel_l2_a:.2e}  "
              f"rel_l2_u={r.rel_l2_u:.2e}  iters={r.iterations}  "
              f"wall={r.wall_time:.2f}s")
    print(f"wrote {path}")
    return 0


def _cmd_table1(args):
    return _run_table(args, "table1.csv")


def _cmd_table2(args):
    return _run_table(args, "table2.csv", objective="mols")


def _cmd_table3(args):
    deltas = (args.delta,) if args.delta else (1e-1, 1e-2, 1e-3)
    return _run_table(args, "table3.csv", label_name="delta", deltas=deltas,
                      mesh_sizes=(80,))


def _cmd_failure(args):
    n = args.n if args.n is not None else 60
    cfg = exp.ExperimentConfig(objective=args.objective, kappa=args.kappa,
                               eps=args.eps, seed=args.seed)
    report = exp.run_failure_demo(cfg, n=n)
    print(f"status: {report['status']}")
    if report.get("condition_estimate") is not None:
        print(f"condition estimate: {report['condition_estimate']:.3e}")
    if report["status"] == "failed":
        print(f"reason: {report['reason']}")
        return 2
    return 0


def _probe(args, second_order):
    n = args.n if args.n is not None else 20
    prob = exp.ManufacturedProblem.build(n)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    dA = rng.uniform(-1.0, 1.0, size=prob.mesh.node_count)
    probe = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA,
                            schedule=default_schedule())
    probe.run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = "probe_scd.csv" if second_order else "probe_fcd.csv"
    probe.write_csv(out / name)
    rep = probe.boundedness_report()
    key = "residual_scd" if second_order else "residual_fcd"
    for r in probe.records:
        print(f"eps={r.eps:.3e}  {key}={getattr(r, key):.3e}  "
              f"sens_norm={r.sens_norm:.3e}")
    print(f"state-gap rate: {rep['state_gap_rate']:.3f}  "
          f"sup sens: {rep['sup_sens_norm']:.3e}")
    print(f"wrote {out / name}")
    return 0


def _cmd_probe_fcd(args):
    return _probe(args, second_order=False)


def _cmd_probe_scd(args):
    return _probe(args, second_order=True)


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
        V = op.solve_state(prob.P)
        g_dir = oracles.ols_gradient_direct(op, V, prob.Z)
        w = op.solve_adjoint(V, prob.Z)
        g_adj = obj.ols_gradient_adjoint(op.L(V), w)
        rel = np.linalg.norm(g_dir - g_adj) / max(np.linalg.norm(g_dir), 1e-300)
        print(f"trial {trial}: adjoint/direct gradient relative gap {rel:.3e}")
        ok = ok and rel < 1e-10
    print("gradient routes agree" if ok else "GRADIENT ROUTE MISMATCH")
    return 0 if ok else 1


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "failure": _cmd_failure,
    "probe-fcd": _cmd_probe_fcd,
    "probe-scd": _cmd_probe_scd,
    "check-gradients": _cmd_check_gradients,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            _apply_config(args, args.config)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as err:  # any unexpected error maps to exit code 1
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Reproduction of the reconstruction-error experiments.

Manufactured pure-Neumann problem on the unit square: the true coefficient
is a_bar = 1 and the (mean-zero) true state is
u_bar(x1, x2) = cos(pi*x1^2) * cos(2*pi*x2). The corresponding source is
f = -div(a_bar grad u_bar) and the Neumann flux vanishes identically on all
four sides, so the compatibility condition holds exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import assembly, noise as noise_mod, objectives as obj
from .forward import (
    RegularizationSchedule,
    RegularizedForwardOperator,
    ScheduleEntry,
    SingularSystemError,
)
from .mesh import Mesh, P1Space, build_unit_square, interpolate
from .optimizer import IdentificationProblem, SolveOptions, minimize


def u_exact(x, y):
    return np.cos(np.pi * x**2) * np.cos(2.0 * np.pi * y)


def f_exact(x, y):
    # -Laplace(u_exact); the flux a*du/dn vanishes on the whole boundary
    px2 = np.pi * x**2
    return (2.0 * np.pi * np.sin(px2)
            + 4.0 * np.pi**2 * x**2 * np.cos(px2)
            + 4.0 * np.pi**2 * np.cos(px2)) * np.cos(2.0 * np.pi * y)


def a_exact(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ManufacturedProblem:
    """Mesh-level realization of the manufactured Neumann problem."""

    mesh: Mesh
    P: np.ndarray
    Z: np.ndarray      # nodal interpolant of the true state (the clean data)
    A_true: np.ndarray

    @classmethod
    def build(cls, n: int) -> "ManufacturedProblem":
        mesh = build_unit_square(n)
        space = P1Space(mesh)
        return cls(
            mesh=mesh,
            P=assembly.assemble_load(mesh, f=f_exact),
            Z=interpolate(space, u_exact),
            A_true=interpolate(space, a_exact),
        )


@dataclass
class ExperimentConfig:
    mesh_sizes: tuple = (30, 40, 50, 60, 70, 80)
    objective: str = "ols"
    kappa: float = 1e-4
    eps: float = 1e-4
    deltas: tuple = ()  # nonempty selects the noise-sweep table at mesh_sizes[-1]
    seed: int = 0
    c1: float = 0.1
    c2: float = 10.0
    ell_mode: str = "data-steered"  # load carries eps*W*z_delta; matches the tables
    tau: float = 0.0
    nu: float = 0.0
    max_iters: int = 500
    method: str = "projected_newton"


@dataclass
class TableRow:
    label: str  # h or delta, preformatted
    rel_l2_a: float
    rel_l2_u: float
    rel_linf_a: float
    rel_linf_u: float
    rel_l2_a_interp: float  # a-error, alternative reference reading
    rel_l2_u_interp: float  # u-error against the interpolated exact state
    iterations: int
    wall_time: float  # reported to the console only; kept out of the CSVs


def _errors(mesh, A_star, V_star, A_true, u_ref, Z_interp):
    M = assembly.shared_mass(mesh)

    def l2(v):
        return float(np.sqrt(max(v @ (M @ v), 0.0)))

    return dict(
        rel_l2_a=l2(A_star - A_true) / l2(A_true),
        rel_l2_u=l2(V_star - u_ref) / l2(u_ref),
        rel_linf_a=float(np.max(np.abs(A_star - A_true)) / np.max(np.abs(A_true))),
        rel_linf_u=float(np.max(np.abs(V_star - u_ref)) / np.max(np.abs(u_ref))),
        rel_l2_a_interp=l2(A_star - A_true) / l2(A_true),
        rel_l2_u_interp=l2(V_star - Z_interp) / l2(Z_interp),
    )


def run_cell(config: ExperimentConfig, n: int, delta: float = 0.0):
    """One table cell: reconstruct on an n-by-n mesh at noise level delta."""
    prob_data = ManufacturedProblem.build(n)
    mesh = prob_data.mesh
    entry = ScheduleEntry(eps=config.eps, tau=config.tau, nu=config.nu,
                          delta=delta, kappa=config.kappa)
    schedule = RegularizationSchedule(entries=(entry,))
    problem = IdentificationProblem(
        mesh=mesh,
        P_exact=prob_data.P,
        Z_exact=prob_data.Z,
        reg=obj.Regularizer(kind="h1"),
        c1=config.c1, c2=config.c2,
        noise=noise_mod.NoiseSpec(seed=config.seed, delta=delta),
        ell_mode=config.ell_mode,
    )
    opts = SolveOptions(objective=config.objective, method=config.method,
                        max_iters=config.max_iters)
    A0 = np.full(mesh.node_count, 0.5 * (config.c1 + config.c2))
    t0 = time.perf_counter()
    result = minimize(problem, schedule, opts, A0)
    wall = time.perf_counter() - t0
    if not result.success:
        return result, None, wall
    # reference state: discrete regularized solve at the true coefficient
    op_ref = RegularizedForwardOperator(mesh, prob_data.A_true, eps=config.eps,
                                        tau=config.tau)
    u_ref = op_ref.solve_state(prob_data.P)
    errs = _errors(mesh, result.A, result.V, prob_data.A_true, u_ref, prob_data.Z)
    return result, errs, wall


def run_table(config: ExperimentConfig) -> list[TableRow]:
    """Mesh-refinement table (or noise-sweep table when config.deltas is set)."""
    rows = []
    if config.deltas:
        n = config.mesh_sizes[-1]
        cells = [(n, d) for d in config.deltas]
        labels = [f"{d:.0e}" for d in config.deltas]
    else:
        cells = [(n, 0.0) for n in config.mesh_sizes]
        labels = [f"{np.sqrt(2.0) / n:.6g}" for n in config.mesh_sizes]
    for (n, delta), label in zip(cells, labels):
        result, errs, wall = run_cell(config, n, delta)
        if errs is None:
            raise SingularSystemError(result.failure_reason,
                                      result.condition_estimate or np.inf)
        rows.append(TableRow(label=label, iterations=result.iterations,
                             wall_time=wall, **errs))
    return rows


def write_table_csv(rows: list[TableRow], path, config: ExperimentConfig,
                    label_name: str = "h") -> None:
    """Main CSV (3 significant digits, deterministic) plus a full-precision sidecar."""
    header = (f"# objective={config.objective} kappa={config.kappa:g} "
              f"eps={config.eps:g} seed={config.seed} tau={config.tau:g} "
              f"nu={config.nu:g}\n")
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.write(f"{label_name},rel_l2_a,rel_l2_u,rel_linf_a,rel_linf_u,iterations\n")
        for r in rows:
            fh.write(f"{r.label},{r.rel_l2_a:.2e},{r.rel_l2_u:.2e},"
                     f"{r.rel_linf_a:.2e},{r.rel_linf_u:.2e},{r.iterations}\n")
    with open(str(path) + ".full.csv", "w", newline="") as fh:
        fh.write(header)
        fh.write(f"{label_name},rel_l2_a,rel_l2_u,rel_linf_a,rel_linf_u,"
                 "rel_l2_a_interp,rel_l2_u_interp,iterations\n")
        for r in rows:
            fh.write(f"{r.label},{r.rel_l2_a!r},{r.rel_l2_u!r},{r.rel_linf_a!r},"
                     f"{r.rel_linf_u!r},{r.rel_l2_a_interp!r},"
                     f"{r.rel_l2_u_interp!r},{r.iterations}\n")


def run_failure_demo(config: ExperimentConfig, n: int = 60) -> dict:
    """Attempt a reconstruction at the configured eps; eps = 0 must fail structurally."""
    try:
        result, errs, wall = run_cell(config, n)
    except SingularSystemError as err:  # raised outside minimize (reference solve)
        return {"status": "failed", "reason": str(err),
                "condition_estimate": err.condition_estimate}
    if not result.success:
        return {"status": "failed", "reason": result.failure_reason,
                "condition_estimate": result.condition_estimate}
    prob_data = ManufacturedProblem.build(n)
    op = RegularizedForwardOperator(prob_data.mesh, result.A, eps=config.eps,
                                    tau=config.tau)
    op.solve_state(prob_data.P)
    status = "success-with-warning" if op.near_singular else "success"
    return {"status": status, "condition_estimate": op.condition_estimate,
            "errors": errs, "wall_time": wall}


def emit_field(values: np.ndarray, nx: int, ny: int, path) -> None:
    """Plain-text grid file: header 'nx ny', then row-major values, 17 digits."""
    values = np.asarray(values, dtype=float).ravel()
    if len(values) != nx * ny:
        raise ValueError("value count does not match the grid")
    try:
        with open(path, "w") as fh:
            fh.write(f"{nx} {ny}\n")
            for v in values:
                fh.write(f"{v:.17g}\n")
    except OSError as err:
        raise OSError(f"cannot write field file {path}: {err}") from err


def read_field(path):
    with open(path) as fh:
        nx, ny = (int(t) for t in fh.readline().split())
        values = np.array([float(line) for line in fh])
    return values, nx, ny

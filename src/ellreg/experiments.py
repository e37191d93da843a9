"""Reproduction of the reconstruction-error experiments.

Manufactured pure-Neumann problem on the unit square: the true coefficient
is a_bar = 1 and the (mean-zero) true state is
u_bar(x1, x2) = cos(pi*x1^2) * cos(2*pi*x2). The corresponding source is
f = -div(a_bar grad u_bar) and the Neumann flux vanishes identically on all
four sides, so the compatibility condition holds exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import assembly
from .forward import RegularizedForwardOperator, ScheduleEntry
from .mesh import Mesh, build_unit_square, interpolate
from .optimizer import IdentificationProblem, minimize


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


@dataclass(frozen=True, eq=False)
class ManufacturedProblem:
    """Mesh-level realization of the manufactured Neumann problem."""

    mesh: Mesh
    P: np.ndarray
    Z: np.ndarray      # nodal interpolant of the true state (the clean data)
    A_true: np.ndarray

    @classmethod
    def build(cls, n: int) -> "ManufacturedProblem":
        mesh = build_unit_square(n)
        return cls(
            mesh=mesh,
            P=assembly.assemble_load(mesh, f=f_exact),
            Z=interpolate(mesh, u_exact),
            A_true=interpolate(mesh, a_exact),
        )


@dataclass
class ExperimentConfig:
    mesh_sizes: tuple = (30, 40, 50, 60, 70, 80)
    objective: str = "ols"
    kappa: float = 1e-4
    eps: float = 1e-4
    deltas: tuple = ()  # nonempty selects the noise-sweep table at mesh_sizes[-1]
    seed: int = 0
    c1: ClassVar[float] = IdentificationProblem.c1  # the box of admissible coefficients
    c2: ClassVar[float] = IdentificationProblem.c2

    @property
    def label_column(self) -> str:
        """Name of the table's first column: ``delta`` for a noise sweep, else ``h``."""
        return "delta" if self.deltas else "h"


@dataclass
class TableRow:
    label: str  # the h or delta of the row, preformatted
    rel_l2_a: float
    rel_l2_u: float
    rel_linf_a: float
    rel_linf_u: float
    rel_l2_u_interp: float  # u-error against the interpolated exact state
    iterations: int
    termination: str
    wall_time: float  # reported to the console only; kept out of the CSV


def _errors(mesh, A_star, V_star, A_true, u_ref, Z_interp):
    M = assembly.shared_mass(mesh)

    def l2(v):
        return float(np.sqrt(max(v @ (M @ v), 0.0)))

    return dict(
        rel_l2_a=l2(A_star - A_true) / l2(A_true),
        rel_l2_u=l2(V_star - u_ref) / l2(u_ref),
        rel_linf_a=float(np.max(np.abs(A_star - A_true)) / np.max(np.abs(A_true))),
        rel_linf_u=float(np.max(np.abs(V_star - u_ref)) / np.max(np.abs(u_ref))),
        rel_l2_u_interp=l2(V_star - Z_interp) / l2(Z_interp),
    )


def _reconstruct(config: ExperimentConfig, n: int, delta: float = 0.0):
    """Build the manufactured problem on an n-by-n mesh and minimize; (problem, result)."""
    prob_data = ManufacturedProblem.build(n)
    mesh = prob_data.mesh
    entry = ScheduleEntry(eps=config.eps, tau=0.0, nu=0.0, delta=delta, kappa=config.kappa)
    problem = IdentificationProblem(
        mesh=mesh,
        P_exact=prob_data.P,
        Z_exact=prob_data.Z,
        seed=config.seed,
    )
    A0 = np.full(mesh.node_count, 0.5 * (config.c1 + config.c2))
    return prob_data, minimize(problem, (entry,), config.objective, A0)


def run_cell(config: ExperimentConfig, n: int, delta: float = 0.0):
    """One table cell: (result, errors or None if singular, wall time incl. the build)."""
    t0 = time.perf_counter()
    prob_data, result = _reconstruct(config, n, delta)
    wall = time.perf_counter() - t0
    if not result.success:
        return result, None, wall
    # reference state: discrete regularized solve at the true coefficient
    op_ref = RegularizedForwardOperator(prob_data.mesh, prob_data.A_true, eps=config.eps)
    u_ref = op_ref.solve(prob_data.P)
    errs = _errors(prob_data.mesh, result.A, result.V, prob_data.A_true, u_ref, prob_data.Z)
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
            raise result.error
        rows.append(TableRow(label=label, iterations=result.iterations,
                             termination=result.termination, wall_time=wall, **errs))
    return rows


def write_table_csv(rows: list[TableRow], path, config: ExperimentConfig) -> None:
    """``config.label_column``, then a column per other ``TableRow`` field but ``wall_time``.

    Each value is written as str(x), which is repr(x) for a float, so it round-trips.
    """
    names = [f.name for f in fields(TableRow) if f.name not in ("label", "wall_time")]
    with open(path, "w", newline="") as fh:
        fh.write(f"# objective={config.objective} kappa={config.kappa:g} "
                 f"eps={config.eps:g} seed={config.seed} tau=0 nu=0\n")
        fh.write(",".join([config.label_column, *names]) + "\n")
        for r in rows:
            fh.write(",".join([r.label, *(str(getattr(r, name)) for name in names)]) + "\n")


def run_failure_demo(config: ExperimentConfig, n: int) -> dict:
    """Attempt a reconstruction at the configured eps; eps = 0 must fail structurally.

    Any termination but grad_tol or stagnation is "failed"; a near-singular final
    operator only warns."""
    _, result = _reconstruct(config, n)
    if result.termination not in ("grad_tol", "stagnation"):
        reason = result.failure_reason or f"minimize stopped on {result.termination}"
        return {"status": "failed", "reason": reason,
                "condition_estimate": result.condition_estimate}
    status = "success-with-warning" if result.operator.near_singular else "success"
    return {"status": status, "condition_estimate": result.condition_estimate}

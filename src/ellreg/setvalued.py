"""Limit checks for the derivative characterizations of the set-valued
parameter-to-solution map.

No cones or graphs are computed. The regularized single-valued map is driven
along a schedule eps -> 0 and the residuals of the first- and second-order
variational characterizations are measured in the discrete dual norm
(W-Riesz map) as they are. No projection onto the mean-zero complement is
needed: K(A)*1 = 0 for every coefficient and each stiffness matrix is
symmetric, so every term of a pure-Neumann residual already annihilates
constants. The coercive surrogate K(A) + W has no constant kernel, and its
residual is measured whole.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import assembly
from .forward import (
    RegularizedForwardOperator,
    riesz_dual_norm,
    solve_neumann_mean_zero,
)
from .mesh import Mesh


def _worker_count(entries: int) -> int:
    """The CPUs this process may run on, at most one per entry."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, entries)


@dataclass
class ProbeRecord:
    n: int
    eps: float
    tau: float
    residual_fcd: float
    residual_scd: float
    sens_norm: float
    state_gap: float


@dataclass(eq=False)
class ContingentProbe:
    """Drives the regularized map to its limit at a fixed base point.

    ``coercive`` switches the base operator from pure-Neumann K(A) to the
    coercive surrogate K(A) + W. In the coercive case that operator is the
    system of the eps = 1 forward operator, whose solve gives the base
    solution; otherwise the base solution is the mean-zero representative
    from the saddle-point oracle. A_bar, dA and dA2 are fixed per probe, so
    their stiffness and a-weighted mass matrices are assembled once; each
    schedule entry forms K_tau = K + tau*M_a from them with ``assembly.perturb``.
    """

    mesh: Mesh
    A_bar: np.ndarray
    P: np.ndarray
    dA: np.ndarray
    schedule: tuple  # nonempty, of ScheduleEntry
    dA2: np.ndarray = None
    coercive: bool = False
    records: list = field(default_factory=list, init=False)

    def __post_init__(self):
        if len(self.schedule) == 0:
            raise ValueError("schedule must be nonempty")
        mesh = self.mesh
        if self.dA2 is None:
            self.dA2 = self.dA
        self.W = assembly.shared_s_matrix(mesh)
        self.K_A = assembly.assemble_stiffness(mesh, self.A_bar)
        self.M_A = assembly.assemble_weighted_mass(mesh, self.A_bar)
        self.K_dA = assembly.assemble_stiffness(mesh, self.dA)
        self.M_dA = assembly.assemble_weighted_mass(mesh, self.dA)
        if self.dA2 is self.dA:
            self.K_dA2, self.M_dA2 = self.K_dA, self.M_dA
        else:
            self.K_dA2 = assembly.assemble_stiffness(mesh, self.dA2)
            self.M_dA2 = assembly.assemble_weighted_mass(mesh, self.dA2)
        if self.coercive:
            op0 = RegularizedForwardOperator(mesh, self.A_bar, eps=1.0, K_tau=self.K_A)
            self.K_bar, self.u_bar = op0.system, op0.solve(self.P)
        else:
            self.K_bar = self.K_A
            self.u_bar = solve_neumann_mean_zero(mesh, self.K_A, self.P)

    def run(self) -> list:
        """One ``ProbeRecord`` per schedule entry, in schedule order.

        The entries are independent regularized problems, so ``_record``
        runs them on a thread pool of ``min(cpus, len(schedule))`` workers,
        ``cpus`` the CPUs this process may run on (``os.sched_getaffinity``,
        else ``os.cpu_count()``). Each entry does the same arithmetic on any
        worker, so the records do not depend on the worker count. If an
        entry raises, ``run`` raises its error and ``records`` stays empty.
        """
        self.records = []
        with ThreadPoolExecutor(_worker_count(len(self.schedule))) as pool:
            self.records = list(pool.map(self._record, range(len(self.schedule)),
                                         self.schedule))
        return self.records

    def _record(self, n: int, entry) -> ProbeRecord:
        """Solve V, dV and d2V at schedule entry ``n``, one solve each; keep their residuals and norms."""
        # the coercive surrogate K + W regularized by eps is the operator at eps + 1
        op = RegularizedForwardOperator(
            self.mesh, self.A_bar, eps=entry.eps + float(self.coercive), tau=entry.tau,
            K_tau=assembly.perturb(self.K_A, self.M_A, entry.tau),
        )
        K1 = assembly.perturb(self.K_dA, self.M_dA, entry.tau)
        V = op.solve(self.P)
        # derivatives of V along a(t) = A_bar + t*dA + t^2/2*dA2 in the operator's system G,
        # K1 = K_tau(dA), K2 = K_tau(dA2): G dV = -K1 V and G d2V = -(2 K1 dV + K2 V)
        K1V = K1 @ V
        K2V = K1V if self.dA2 is self.dA else (
            assembly.perturb(self.K_dA2, self.M_dA2, entry.tau) @ V)
        dV1 = op.solve(-K1V)
        d2V = op.solve(-(2.0 * (K1 @ dV1) + K2V))
        return ProbeRecord(
            n=n, eps=entry.eps, tau=entry.tau,
            residual_fcd=self.fcd_residual(dV1),
            residual_scd=self.scd_residual(dV1, d2V),
            sens_norm=self._energy_norm(dV1),
            state_gap=self._energy_norm(V - self.u_bar),
        )

    def _energy_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(v @ (self.W @ v), 0.0)))

    def fcd_residual(self, dV: np.ndarray) -> float:
        """W^-1 dual norm of the first-order residual K_bar dV + K(dA) u_bar as it is;
        with K_bar*1 = K(dA)*1 = 0 (pure Neumann) it annihilates constants."""
        r = self.K_bar @ dV + self.K_dA @ self.u_bar
        return riesz_dual_norm(self.mesh, r)

    def scd_residual(self, dV: np.ndarray, d2V: np.ndarray) -> float:
        """W^-1 dual norm of the second-order residual K_bar d2V + 2 K(dA) dV
        + K(dA2) u_bar as it is, for the same reason as ``fcd_residual``'s."""
        r = (self.K_bar @ d2V
             + 2.0 * (self.K_dA @ dV)
             + self.K_dA2 @ self.u_bar)
        return riesz_dual_norm(self.mesh, r)

    def boundedness_report(self) -> dict:
        """Sup of sensitivity norms plus the fitted state-gap rate in eps, after ``run``."""
        sens = np.array([r.sens_norm for r in self.records])
        gaps = np.array([r.state_gap for r in self.records])
        eps = np.array([r.eps for r in self.records])
        mask = gaps > 0
        slope = float("nan")
        if mask.sum() >= 2:
            slope = float(np.polyfit(np.log(eps[mask]), np.log(gaps[mask]), 1)[0])
        sup = float(sens.max())
        flagged = sup > 10.0 * float(np.median(sens))
        return {"sup_sens_norm": sup, "state_gap_rate": slope, "flagged": flagged}

    def write_csv(self, path) -> None:
        """A column per ``ProbeRecord`` field; floats as str(x) == repr(x), so they round-trip."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(f.name for f in fields(ProbeRecord))
            w.writerows(astuple(r) for r in self.records)

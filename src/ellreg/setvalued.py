"""Limit checks for the derivative characterizations of the set-valued
parameter-to-solution map.

No cones or graphs are computed. The regularized single-valued map is driven
along a schedule eps -> 0 and the residuals of the first- and second-order
variational characterizations are measured in the discrete dual norm
(W-Riesz map), after projecting onto the mean-zero complement where the
unregularized operator annihilates constants.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly
from .forward import (
    RegularizationSchedule,
    RegularizedForwardOperator,
    mean_zero_projection,
    riesz_dual_norm,
    solve_neumann_mean_zero,
)
from .mesh import Mesh


@dataclass
class ProbeRecord:
    n: int
    eps: float
    tau: float
    residual_fcd: float
    residual_scd: float
    sens_norm: float
    state_gap: float


@dataclass
class ContingentProbe:
    """Drives the regularized map to its limit at a fixed base point.

    ``coercive`` switches the base operator from pure-Neumann K(A) to the
    coercive surrogate K(A) + W; in the coercive case the base solution is a
    plain solve, otherwise the mean-zero representative from the saddle-point
    oracle.
    """

    mesh: Mesh
    A_bar: np.ndarray
    P: np.ndarray
    dA: np.ndarray
    dA2: np.ndarray = None
    schedule: RegularizationSchedule = None
    coercive: bool = False
    records: list = field(default_factory=list)

    def __post_init__(self):
        self.A_bar = np.asarray(self.A_bar, dtype=float)
        self.dA = np.asarray(self.dA, dtype=float)
        if self.dA2 is None:
            self.dA2 = self.dA
        self.dA2 = np.asarray(self.dA2, dtype=float)
        self.W = assembly.shared_s_matrix(self.mesh)
        self._W_lu = spla.splu(self.W.tocsc())
        if self.coercive:
            op0 = RegularizedForwardOperator(self.mesh, self.A_bar, eps=0.0, coercive_shift=1.0)
            self.u_bar = op0.solve_state(self.P)
        else:
            self.u_bar = solve_neumann_mean_zero(self.mesh, self.A_bar, self.P)

    def _shift(self) -> float:
        return 1.0 if self.coercive else 0.0

    def run(self) -> list:
        """Solve state/sensitivity/second-sensitivity at every schedule entry."""
        self.records = []
        self._sens = []
        self._sens2 = []
        self._states = []
        for n, entry in enumerate(self.schedule):
            op = RegularizedForwardOperator(
                self.mesh, self.A_bar, eps=entry.eps, tau=entry.tau,
                coercive_shift=self._shift(),
            )
            V = op.solve_state(self.P)
            dV1 = op.solve_sensitivity(V, self.dA)
            dV_tilde = dV1 if self.dA2 is self.dA else op.solve_sensitivity(V, self.dA2)
            # second-order expansion of u_eps along a(t) = A_bar + t*dA + t^2/2*dA2:
            # the pure second derivative in (dA, dA) plus the first derivative in dA2
            d2V = op.solve_second_sensitivity(V, self.dA, self.dA, dV1, dV1) + dV_tilde
            self._states.append(V)
            self._sens.append(dV1)
            self._sens2.append(d2V)
            gap = self._energy_norm(V - self.u_bar)
            self.records.append(ProbeRecord(
                n=n, eps=entry.eps, tau=entry.tau,
                residual_fcd=self.fcd_residual(n),
                residual_scd=self.scd_residual(n),
                sens_norm=self._energy_norm(dV1),
                state_gap=gap,
            ))
        return self.records

    def _energy_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(v @ (self.W @ v), 0.0)))

    def _dual_residual(self, r: np.ndarray) -> float:
        return riesz_dual_norm(self.W, mean_zero_projection(r), self._W_lu)

    def _base_apply(self, v: np.ndarray) -> np.ndarray:
        out = assembly.apply_L(self.mesh, v, self.A_bar)
        if self.coercive:
            out = out + self.W @ v
        return out

    def fcd_residual(self, n: int) -> float:
        """Dual-norm residual of the first-order characterization at entry n."""
        dV = self._sens[n]
        r = self._base_apply(dV) + assembly.apply_L(self.mesh, self.u_bar, self.dA)
        return self._dual_residual(r)

    def scd_residual(self, n: int) -> float:
        """Dual-norm residual of the second-order characterization at entry n."""
        d2V = self._sens2[n]
        dV = self._sens[n]
        r = (self._base_apply(d2V)
             + 2.0 * assembly.apply_L(self.mesh, dV, self.dA)
             + assembly.apply_L(self.mesh, self.u_bar, self.dA2))
        return self._dual_residual(r)

    def scd_equivalent_residual(self, n: int, dV_tilde: np.ndarray) -> float:
        """Residual of the equivalent second-order form written with the
        first-order term T(a_bar, dV_tilde, .) in place of -T(dA2, u_bar, .)."""
        d2V = self._sens2[n]
        dV = self._sens[n]
        r = (self._base_apply(d2V)
             + 2.0 * assembly.apply_L(self.mesh, dV, self.dA)
             - self._base_apply(dV_tilde))
        return self._dual_residual(r)

    def boundedness_report(self) -> dict:
        """Sup of sensitivity norms plus the fitted state-gap rate in eps."""
        if not self.records:
            self.run()
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
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "eps", "tau", "residual_fcd", "residual_scd",
                        "sens_norm", "state_gap"])
            for r in self.records:
                w.writerow([r.n, repr(r.eps), repr(r.tau), repr(r.residual_fcd),
                            repr(r.residual_scd), repr(r.sens_norm), repr(r.state_gap)])

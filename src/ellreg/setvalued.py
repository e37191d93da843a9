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
import scipy.sparse as sp

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


def _perturbed(K: sp.csr_matrix, M_a: sp.csr_matrix, tau: float) -> sp.csr_matrix:
    """K_tau(a) = K(a) + tau*M_a, summed as assembly.assemble_perturbed_stiffness does."""
    return K if tau == 0.0 else (K + tau * M_a).tocsr()


@dataclass
class ContingentProbe:
    """Drives the regularized map to its limit at a fixed base point.

    ``coercive`` switches the base operator from pure-Neumann K(A) to the
    coercive surrogate K(A) + W; in the coercive case the base solution is a
    plain solve, otherwise the mean-zero representative from the saddle-point
    oracle. A_bar, dA and dA2 are fixed per probe, so their stiffness and
    a-weighted mass matrices are assembled once; each schedule entry forms
    K_tau = K + tau*M_a from them with sparse adds.
    """

    mesh: Mesh
    A_bar: np.ndarray
    P: np.ndarray
    dA: np.ndarray
    schedule: RegularizationSchedule
    dA2: np.ndarray = None
    coercive: bool = False
    records: list = field(default_factory=list, init=False)

    def __post_init__(self):
        mesh = self.mesh
        self.A_bar = np.asarray(self.A_bar, dtype=float)
        self.dA = np.asarray(self.dA, dtype=float)
        if self.dA2 is None:
            self.dA2 = self.dA
        self.dA2 = np.asarray(self.dA2, dtype=float)
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
            self.K_bar = (self.K_A + self.W).tocsr()
            op0 = RegularizedForwardOperator(mesh, self.A_bar, eps=1.0, K_tau=self.K_A)
            self.u_bar = op0.solve_state(self.P)
        else:
            self.K_bar = self.K_A
            self.u_bar = solve_neumann_mean_zero(mesh, self.K_A, self.P)

    def run(self) -> list:
        """Solve state/sensitivity/second-sensitivity at every schedule entry."""
        self.records = []
        self._sens = []
        self._sens2 = []
        # the coercive surrogate K + W regularized by eps is the operator at eps + 1
        shift = float(self.coercive)
        for n, entry in enumerate(self.schedule):
            op = RegularizedForwardOperator(
                self.mesh, self.A_bar, eps=entry.eps + shift, tau=entry.tau,
                K_tau=_perturbed(self.K_A, self.M_A, entry.tau),
            )
            K1 = _perturbed(self.K_dA, self.M_dA, entry.tau)
            V = op.solve_state(self.P)
            dV1 = op.solve_sensitivity(V, K1)
            if self.dA2 is self.dA:
                dV_tilde = dV1
            else:
                dV_tilde = op.solve_sensitivity(
                    V, _perturbed(self.K_dA2, self.M_dA2, entry.tau))
            # second-order expansion of u_eps along a(t) = A_bar + t*dA + t^2/2*dA2:
            # the pure second derivative in (dA, dA) plus the first derivative in dA2
            d2V = op.solve_second_sensitivity(K1, K1, dV1, dV1) + dV_tilde
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
        return riesz_dual_norm(self.mesh, mean_zero_projection(r))

    def fcd_residual(self, n: int) -> float:
        """Dual-norm residual of the first-order characterization at entry n."""
        r = self.K_bar @ self._sens[n] + self.K_dA @ self.u_bar
        return self._dual_residual(r)

    def scd_residual(self, n: int) -> float:
        """Dual-norm residual of the second-order characterization at entry n."""
        r = (self.K_bar @ self._sens2[n]
             + 2.0 * (self.K_dA @ self._sens[n])
             + self.K_dA2 @ self.u_bar)
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

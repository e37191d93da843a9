"""Regularized forward, sensitivity and adjoint solves.

The forward operator is [K_tau(A) + eps*W]. A coercive reference problem
K(A) + c0*W with its own regularization eps is this operator at eps + c0.
For eps = 0 on the pure-Neumann problem the system is singular; the solve
reports a structured error carrying a condition estimate instead of
returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .mesh import Mesh

SOLVER_TOL = 1e-12
# thresholds on the constant-mode generalized eigenvalue 1'(K_tau + eps*W)1 / 1'W1,
# which certifies the near-null direction of the pure-Neumann operator
LAMBDA_FAIL = 1e-13
LAMBDA_WARN = 1e-9


class SingularSystemError(RuntimeError):
    """Raised when the (eps = 0) system is numerically singular."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class ScheduleEntry:
    eps: float
    tau: float
    nu: float
    delta: float
    kappa: float


@dataclass(frozen=True)
class RegularizationSchedule:
    """Coupled decay of (eps, tau, nu, delta, kappa) with the ratio conditions."""

    entries: tuple

    def __post_init__(self):
        for e in self.entries:
            if min(e.eps, e.tau, e.nu, e.delta, e.kappa) < 0:
                raise ValueError("schedule entries need eps, tau, nu, delta, kappa >= 0")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def default_schedule(n_entries: int = 8, eps0: float = 1e-1) -> RegularizationSchedule:
    """eps_n = eps0/2^n, tau_n = eps_n^2, nu_n = delta_n = eps_n^(3/2), kappa_n = eps_n."""
    entries = []
    for k in range(n_entries):
        eps = eps0 * 0.5**k
        entries.append(ScheduleEntry(eps=eps, tau=eps**2, nu=eps**1.5, delta=eps**1.5, kappa=eps))
    return RegularizationSchedule(entries=tuple(entries))


class RegularizedForwardOperator:
    """Factorized handle for [K_tau(A) + eps*W] at fixed (A, eps, tau).

    Immutable after factorization; repeated solves reuse the factorization.
    ``K_tau`` is K_tau(A) at this tau when the caller has it assembled
    already; otherwise it is assembled here.
    """

    def __init__(self, mesh: Mesh, A: np.ndarray, eps: float, tau: float = 0.0,
                 K_tau: sp.csr_matrix = None):
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        self.mesh = mesh
        self.eps = float(eps)
        self.tau = float(tau)
        if K_tau is None:
            K_tau = assembly.assemble_perturbed_stiffness(mesh, A, tau)
        self.K_tau = K_tau
        self.W = assembly.shared_s_matrix(mesh)
        self.M = assembly.shared_mass(mesh)
        self.system = (self.K_tau + self.eps * self.W).tocsc()
        self._system_norm = spla.norm(self.system, np.inf)
        self._lu = None
        self.condition_estimate = None
        self.near_singular = False

    def _factorize(self):
        if self._lu is not None:
            return
        # constant-mode generalized eigenvalue lam_c = eps + tau*int(a):
        # the stiffness part annihilates constants, so this resolves levels far
        # below what LU pivots can certify. The tau contribution is measured
        # from the assembled matrix with a roundoff floor; the eps part is exact.
        ones = np.ones(self.mesh.node_count)
        t_term = (ones @ (self.K_tau @ ones)) / (ones @ (self.W @ ones))
        if t_term < 256.0 * np.finfo(float).eps * self._system_norm:
            t_term = 0.0
        lam_c = self.eps + t_term
        self.condition_estimate = (self._system_norm / lam_c if lam_c > 0
                                   else np.inf)
        if lam_c < LAMBDA_FAIL:
            raise SingularSystemError(
                f"system is numerically singular (eps={self.eps:g}, "
                f"constant-mode eigenvalue {lam_c:.3e}); "
                f"condition estimate {self.condition_estimate:.3e}",
                self.condition_estimate,
            )
        self.near_singular = lam_c < LAMBDA_WARN
        lu = spla.splu(self.system, permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
        udiag = np.abs(lu.U.diagonal())
        umax = udiag.max()
        # pivot-ratio fallback catches degeneracies unrelated to the constant mode
        if umax > 0 and udiag.min() / umax < 1e-12:
            self.near_singular = True
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self._factorize()
        x = self._lu.solve(rhs)
        # backward-stability scale: |b| alone misjudges solves whose solution
        # is amplified by the 1/eps constant mode
        scale = np.linalg.norm(rhs) + self._system_norm * np.linalg.norm(x)
        res = np.linalg.norm(self.system @ x - rhs)
        if scale > 0 and res > SOLVER_TOL * scale:
            # one step of iterative refinement recovers the lost digits
            x = x + self._lu.solve(rhs - self.system @ x)
            res = np.linalg.norm(self.system @ x - rhs)
            scale = np.linalg.norm(rhs) + self._system_norm * np.linalg.norm(x)
        if scale > 0 and res > 1e-8 * scale:
            raise SingularSystemError(
                f"solve did not reach tolerance (relative residual {res / scale:.3e})",
                self.condition_estimate or np.inf,
            )
        return x

    def solve_state(self, P: np.ndarray) -> np.ndarray:
        """Solve [K_tau(A) + eps*W] V = P."""
        return self.solve(np.asarray(P, dtype=float))

    def L(self, V: np.ndarray) -> sp.csr_matrix:
        """The tensor L(V) at this operator's tau: L(V) @ dA = K_tau(dA) @ V."""
        return assembly.assemble_L(self.mesh, V, self.tau)

    def solve_sensitivity(self, V: np.ndarray, K_dA: sp.csr_matrix) -> np.ndarray:
        """First-order sensitivity: [K_tau(A)+eps*W] dV = -K_tau(dA) V.

        ``K_dA`` is the direction operator K_tau(dA), at this operator's tau.
        """
        return self.solve(-(K_dA @ V))

    def solve_second_sensitivity(self, K_dA1, K_dA2, dV1, dV2) -> np.ndarray:
        """Second-order sensitivity: rhs = -K_tau(dA2) dV1 - K_tau(dA1) dV2,
        with the direction operators K_tau(dA1), K_tau(dA2) assembled."""
        rhs = -(K_dA2 @ dV1)
        rhs -= K_dA1 @ dV2
        return self.solve(rhs)

    def solve_adjoint(self, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Adjoint state: [K_tau(A)+eps*W] w = M (Z - V)."""
        return self.solve(self.M @ (np.asarray(Z, dtype=float) - np.asarray(V, dtype=float)))


def riesz_dual_norm(mesh: Mesh, r: np.ndarray) -> float:
    """Discrete dual norm sqrt(r^T W^-1 r) via the W-inner-product Riesz map."""
    r = np.asarray(r, dtype=float)
    q = assembly.shared_s_factor(mesh).solve(r)
    return float(np.sqrt(max(r @ q, 0.0)))


def mean_zero_projection(v: np.ndarray) -> np.ndarray:
    """Project onto the complement of constants (zero-mean nodal vector)."""
    v = np.asarray(v, dtype=float)
    return v - v.mean()


def solve_neumann_mean_zero(mesh: Mesh, K: sp.csr_matrix, P: np.ndarray) -> np.ndarray:
    """Unregularized pure-Neumann solve K u = P with the mean-zero constraint c.u = 0,
    K = K(A) the assembled stiffness matrix.

    This is the saddle-point system [[K, c], [c^T, 0]] [u; lam] = [P; 0]
    with c = M*1, solved without its dense border: the multiplier is
    lam = (1.P)/(1.c), so u solves K u = P - lam*c, a compatible load.
    K annihilates constants, so node 0 is pinned, K[1:, 1:] is factorized
    as the forward operator is, and the result is shifted to c.u = 0.
    """
    c = assembly.shared_mass(mesh) @ np.ones(mesh.node_count)
    P = np.asarray(P, dtype=float)
    rhs = P - c * (P.sum() / c.sum())
    lu = spla.splu(K[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   options={"SymmetricMode": True})
    u = np.zeros(mesh.node_count)
    u[1:] = lu.solve(rhs[1:])
    return u - (c @ u) / c.sum()


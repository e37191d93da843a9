"""The regularized forward operator and the pure-Neumann reference solve.

The forward operator is [K_tau(A) + eps*W]. Its factorized handle solves
any equation with this system; the state, sensitivity and adjoint
equations differ only in their right-hand sides, which their callers form
(``objectives``, ``setvalued``). A coercive reference problem
K(A) + c0*W with its own regularization eps is this operator at eps + c0.
This module alone decides that a system cannot be solved: a constant-mode
eigenvalue below LAMBDA_FAIL (eps = 0 on the pure-Neumann problem), an exactly
singular factor or a solve off tolerance or NaN raise ``SingularSystemError``.
Every solve here, the operator's, W's and the pinned K's, is residual-checked.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property

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
# SuperLU supernode panel width of every factorization; on these 2D meshes
# (n = 90, 160) 2 factorizes about 15% faster than SuperLU's default of 10,
# with the same fill and solve time
LU_PANEL_SIZE = 2


class _Factor:
    """Sparse LU by the package's one recipe, with its residual-checked solve.

    Minimum degree on A^T + A with symmetric-mode (diagonal-first) pivoting,
    as the symmetric systems [K_tau + eps*W], pinned K and W want. Threads may
    share a factor, as a solve keeps no state. A failed solve reports norm/lam_c
    as its condition estimate, NaN where the constant-mode eigenvalue is unknown.
    """

    def __init__(self, matrix: sp.spmatrix, lam_c: float = np.nan):
        self.matrix = matrix
        self.norm = spla.norm(matrix, np.inf)
        self.condition_estimate = self.norm / lam_c
        try:
            self.lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                panel_size=LU_PANEL_SIZE, options={"SymmetricMode": True})
        except RuntimeError as err:  # SuperLU's "Factor is exactly singular"
            raise SingularSystemError(f"LU factorization failed: {err}", np.inf) from err

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve matrix @ x = rhs, refined once if the residual misses SOLVER_TOL."""
        x = self.lu.solve(rhs)
        r = rhs - self.matrix @ x
        # backward-stability scale: |b| alone misjudges solves whose solution
        # is amplified by the 1/eps constant mode. It is 0 only if rhs = x = 0,
        # and then r = 0 too; a NaN residual fails both tests
        scale = np.linalg.norm(rhs) + self.norm * np.linalg.norm(x)
        if not np.linalg.norm(r) <= SOLVER_TOL * scale:
            # one step of iterative refinement recovers the lost digits
            x = x + self.lu.solve(r)
            r = rhs - self.matrix @ x
            scale = np.linalg.norm(rhs) + self.norm * np.linalg.norm(x)
        res = np.linalg.norm(r)
        if not res <= 1e-8 * scale:
            raise SingularSystemError(f"solve did not reach tolerance (relative residual "
                                      f"{res / scale:.3e})", self.condition_estimate)
        return x


class SingularSystemError(RuntimeError):
    """Raised for any system ``forward`` cannot solve, eps = 0 among them."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class ScheduleEntry:
    """One step of the coupled decay of (eps, tau, nu, delta, kappa).

    A schedule is a tuple of entries.
    """

    eps: float
    tau: float
    nu: float
    delta: float
    kappa: float

    def __post_init__(self):
        if not all(0.0 <= v < np.inf for v in astuple(self)):  # False for NaN too
            raise ValueError("schedule entries need finite eps, tau, nu, delta, kappa >= 0")


def default_schedule(n_entries: int = 8, eps0: float = 1e-1) -> tuple:
    """eps_n = eps0/2^n, tau_n = eps_n^2, nu_n = delta_n = eps_n^(3/2), kappa_n = eps_n."""
    entries = []
    for k in range(n_entries):
        eps = eps0 * 0.5**k
        entries.append(ScheduleEntry(eps=eps, tau=eps**2, nu=eps**1.5, delta=eps**1.5, kappa=eps))
    return tuple(entries)


class RegularizedForwardOperator:
    """Factorized handle for [K_tau(A) + eps*W] at fixed (A, eps, tau).

    Factorized on construction, which raises ``SingularSystemError`` for a
    singular system; repeated solves reuse the factorization.
    ``near_singular`` is computed on first read. ``K_tau`` is
    K_tau(A) at this tau when the caller has it assembled already; otherwise
    it is assembled here. ``A`` is read for the constant-mode eigenvalue either way.
    """

    def __init__(self, mesh: Mesh, A: np.ndarray, eps: float, tau: float = 0.0,
                 K_tau: sp.csr_matrix = None):
        if not (0.0 <= eps < np.inf and 0.0 <= tau < np.inf):
            raise ValueError("eps and tau must be finite and nonnegative")
        self.mesh = mesh
        self.eps = float(eps)
        self.tau = float(tau)
        if K_tau is None:
            K_tau = assembly.assemble_perturbed_stiffness(mesh, A, tau)
        self.M = assembly.shared_mass(mesh)
        # K_tau and W are exactly symmetric, so the sum's CSR arrays are its CSC arrays
        self.system = assembly.perturb(K_tau, assembly.shared_s_matrix(mesh), self.eps).T
        # constant-mode generalized eigenvalue lam_c = 1'G1 / 1'W1 = eps + tau*int(a)/|Omega|,
        # exact as K(A) annihilates constants and 1'W1 = 1'M1; it resolves levels
        # far below what LU pivots can certify. m_k = int(psi_k).
        m = self.M @ np.ones(mesh.node_count)
        lam_c = self.eps + self.tau * (m @ A) / m.sum()
        if lam_c < LAMBDA_FAIL:
            cond = spla.norm(self.system, np.inf) / lam_c if lam_c > 0 else np.inf
            raise SingularSystemError(f"system is numerically singular (eps={self.eps:g}, "
                                      f"constant-mode eigenvalue {lam_c:.3e}); "
                                      f"condition estimate {cond:.3e}", cond)
        self._lam_c = lam_c
        self._factor = _Factor(self.system, lam_c)
        self.condition_estimate = self._factor.condition_estimate

    @cached_property
    def near_singular(self) -> bool:
        """lam_c < LAMBDA_WARN, or an LU pivot ratio below 1e-12."""
        if self._lam_c < LAMBDA_WARN:
            return True
        # pivot-ratio fallback catches degeneracies unrelated to the constant mode;
        # extracting U copies it, so only a read pays for it
        udiag = np.abs(self._factor.lu.U.diagonal())
        return bool(udiag.min() / udiag.max() < 1e-12)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve [K_tau(A) + eps*W] x = rhs, e.g. the state V for the load P."""
        return self._factor.solve(rhs)

    def L(self, V: np.ndarray) -> sp.csr_matrix:
        """The tensor L(V) at this operator's tau: L(V) @ dA = K_tau(dA) @ V."""
        return assembly.assemble_L(self.mesh, V, self.tau)


def riesz_dual_norm(mesh: Mesh, r: np.ndarray) -> float:
    """Discrete dual norm sqrt(r^T W^-1 r) via the W-inner-product Riesz map.

    W's LU is factorized once per mesh and cached on it.
    """
    r = np.asarray(r, dtype=float)
    q = mesh.cached("s_factor", lambda m: _Factor(assembly.shared_s_matrix(m))).solve(r)
    return float(np.sqrt(max(r @ q, 0.0)))


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
    u = np.zeros(mesh.node_count)
    u[1:] = _Factor(K[1:, 1:]).solve(rhs[1:])
    return u - (c @ u) / c.sum()


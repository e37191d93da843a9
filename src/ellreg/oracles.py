"""Reference routes for the OLS/MOLS derivatives: the direct gradient and
the dense Hessians, the sampled variational-inequality optimality
residuals, and an L-BFGS-B minimum of one schedule entry's objective.

The derivative routes are algebraically independent of the adjoint-state
scheme in ``objectives``, so the tests and ``ellreg check-gradients`` hold
the two against each other; the L-BFGS-B minimum is held against
``optimizer.minimize``. Nothing on the reconstruction or probe path
imports this module. The direct gradient and the dense Hessians cost one
solve per parameter; small meshes only.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize as spo

from . import assembly
from .forward import RegularizedForwardOperator
from .mesh import Mesh
from .objectives import regularizer_eval
from .optimizer import IdentificationProblem, _EntryObjective

VI_RANDOM_POINTS = 32  # random interior points a VI residual samples besides the box faces
VI_SEED = 0  # their Philox key


def ols_gradient_direct(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sensitivity route: g_k = (V-Z)^T M dV_k, dV_k = -[K_tau(A)+eps*W]^-1 L(V) e_k.

    One solve per parameter, no adjoint state; no regularizer term.
    """
    V = np.asarray(V, dtype=float)
    d = V - np.asarray(Z, dtype=float)
    return -_solve_columns(op, _dense_L(op, V)).T @ (op.M @ d)


def _solve_columns(op: RegularizedForwardOperator, X: np.ndarray) -> np.ndarray:
    """G^-1 X, one solve per column of X."""
    return np.column_stack([op.solve(c) for c in X.T])


def _dense_L(op: RegularizedForwardOperator, U: np.ndarray) -> np.ndarray:
    """Materialize L(U) column by column as K_tau(e_k) U.

    Built from the assembled stiffness, not from ``assemble_L``, so it stays
    an independent reference for the assembled tensor.
    """
    m = op.mesh.node_count
    cols = [assembly.assemble_perturbed_stiffness(op.mesh, e, op.tau) @ U for e in np.eye(m)]
    return np.column_stack(cols)


def ols_hessian_dense(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Three-term dense Hessian (misfit part only)."""
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    LV = _dense_L(op, np.asarray(V, dtype=float))
    Q = op.solve(op.M @ d)
    GiLV = _solve_columns(op, LV)
    GiLQ = _solve_columns(op, _dense_L(op, Q))
    term1 = LV.T @ GiLQ
    term3 = GiLV.T @ (op.M @ GiLV)
    return term1 + term1.T + term3


def mols_hessian_dense(op: RegularizedForwardOperator, V: np.ndarray) -> np.ndarray:
    """Dense L(V)^T G^-1 L(V)."""
    LV = _dense_L(op, np.asarray(V, dtype=float))
    return LV.T @ _solve_columns(op, LV)


def mols_optimality_residual(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray,
                             A: np.ndarray, kappa: float, c1: float, c2: float) -> float:
    """Worst sampled violation of the MOLS variational-inequality condition.

    Evaluates -1/2 T_tau(a - A, V+Z, V-Z) - kappa*(R(A) - R(a)) over box-face
    points and seeded random interior points; at a minimizer the minimum must
    be >= -tol.
    """
    V = np.asarray(V, dtype=float)
    Z = np.asarray(Z, dtype=float)
    g = -0.5 * assembly.apply_Lt(op.mesh, V + Z, V - Z, op.tau)
    return _vi_residual(op.mesh, g, A, kappa, c1, c2)


def ols_optimality_residual(op: RegularizedForwardOperator, V: np.ndarray, P_adj: np.ndarray,
                            A: np.ndarray, kappa: float, c1: float, c2: float) -> float:
    """Worst sampled violation of T_tau(a - A, V, p) >= kappa*(R(A) - R(a))."""
    g = assembly.apply_Lt(op.mesh, V, P_adj, op.tau)
    return _vi_residual(op.mesh, g, A, kappa, c1, c2)


def _vi_residual(mesh: Mesh, g: np.ndarray, A: np.ndarray, kappa: float, c1: float,
                 c2: float) -> float:
    """min over sampled a of (a - A) . g - kappa*(R(A) - R(a)), g the misfit gradient."""
    A = np.asarray(A, dtype=float)
    RA = regularizer_eval(mesh, A)[0]
    return min(float((a - A) @ g) - kappa * (RA - regularizer_eval(mesh, a)[0])
               for a in _vi_samples(A, c1, c2))


def _vi_samples(A: np.ndarray, c1: float, c2: float):
    """Box-face points (one coordinate moved to each bound) plus random interior points."""
    m = len(A)
    for i in range(m):
        for bound in (c1, c2):
            a = A.copy()
            a[i] = bound
            yield a
    rng = np.random.Generator(np.random.Philox(key=VI_SEED))
    for _ in range(VI_RANDOM_POINTS):
        yield rng.uniform(c1, c2, size=m)


def entry_minimum_lbfgsb(problem: IdentificationProblem, entry, objective: str,
                         A0: np.ndarray):
    """Minimize one schedule entry's objective over the box with L-BFGS-B.

    Uses only the value and the adjoint gradient of ``optimizer``'s entry
    objective, no Hessian, so it is a reference for the minimum that
    ``optimizer.minimize`` reaches (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci.
    Comput. 16, 1995). Returns scipy's ``OptimizeResult``: ``fun`` and ``x``
    are the final value and iterate.
    """
    fun = _EntryObjective(problem, entry, objective)

    def value_and_grad(A):
        value, state = fun.evaluate(A)
        return value, fun.derivatives(state)[0]

    # L-BFGS-B clips the start point to the bounds itself
    return spo.minimize(value_and_grad, A0, jac=True, method="L-BFGS-B",
                        bounds=[(problem.c1, problem.c2)] * len(A0),
                        options=dict(ftol=1e-15, gtol=1e-12))

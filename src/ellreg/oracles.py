"""Reference routes for the OLS/MOLS derivatives: the direct gradient and
the dense Hessians, and the sampled variational-inequality optimality
residuals.

The derivative routes are algebraically independent of the adjoint-state
scheme in ``objectives``, so the tests and ``ellreg check-gradients`` hold
the two against each other. Nothing on the reconstruction or probe path
imports this module. The dense Hessians cost one solve per parameter; small
meshes only.
"""

from __future__ import annotations

import numpy as np

from . import assembly
from .forward import RegularizedForwardOperator
from .mesh import Mesh
from .objectives import regularizer_eval


def ols_gradient_direct(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Direct route: -L(V)^T [K_tau(A)+eps*W]^-1 M (V-Z); no regularizer term."""
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    Q = op.solve(op.M @ d)
    return -assembly.apply_Lt(op.mesh, V, Q, op.tau)


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
    LQ = _dense_L(op, Q)
    GiLV = np.column_stack([op.solve(c) for c in LV.T])
    GiLQ = np.column_stack([op.solve(c) for c in LQ.T])
    term1 = LV.T @ GiLQ
    term3 = GiLV.T @ (op.M @ GiLV)
    return term1 + term1.T + term3


def mols_hessian_dense(op: RegularizedForwardOperator, V: np.ndarray) -> np.ndarray:
    """Dense L(V)^T G^-1 L(V)."""
    LV = _dense_L(op, np.asarray(V, dtype=float))
    GiLV = np.column_stack([op.solve(c) for c in LV.T])
    return LV.T @ GiLV


def mols_optimality_residual(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray,
                             A: np.ndarray, kappa: float, c1: float, c2: float,
                             n_random: int = 32, seed: int = 0) -> float:
    """Worst sampled violation of the MOLS variational-inequality condition.

    Evaluates -1/2 T_tau(a - A, V+Z, V-Z) - kappa*(R(A) - R(a)) over box-face
    points and seeded random interior points; at a minimizer the minimum must
    be >= -tol.
    """
    V = np.asarray(V, dtype=float)
    Z = np.asarray(Z, dtype=float)
    g = -0.5 * assembly.apply_Lt(op.mesh, V + Z, V - Z, op.tau)
    return _vi_residual(op.mesh, g, A, kappa, c1, c2, n_random, seed)


def ols_optimality_residual(op: RegularizedForwardOperator, V: np.ndarray, P_adj: np.ndarray,
                            A: np.ndarray, kappa: float, c1: float, c2: float,
                            n_random: int = 32, seed: int = 0) -> float:
    """Worst sampled violation of T_tau(a - A, V, p) >= kappa*(R(A) - R(a))."""
    g = assembly.apply_Lt(op.mesh, np.asarray(V, dtype=float), np.asarray(P_adj, dtype=float), op.tau)
    return _vi_residual(op.mesh, g, A, kappa, c1, c2, n_random, seed)


def _vi_residual(mesh: Mesh, g: np.ndarray, A: np.ndarray, kappa: float, c1: float,
                 c2: float, n_random: int, seed: int) -> float:
    """min over sampled a of (a - A) . g - kappa*(R(A) - R(a)), g the misfit gradient."""
    A = np.asarray(A, dtype=float)
    RA = regularizer_eval(mesh, A)[0]
    return min(float((a - A) @ g) - kappa * (RA - regularizer_eval(mesh, a)[0])
               for a in _vi_samples(A, c1, c2, n_random, seed))


def _vi_samples(A: np.ndarray, c1: float, c2: float, n_random: int, seed: int):
    """Box-face points (one coordinate moved to each bound) plus random interior points."""
    m = len(A)
    for i in range(m):
        for bound in (c1, c2):
            a = A.copy()
            a[i] = bound
            yield a
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(n_random):
        yield rng.uniform(c1, c2, size=m)

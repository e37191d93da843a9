"""Reference routes for the OLS/MOLS derivatives: the direct gradient and
the dense Hessians.

They are algebraically independent of the adjoint-state scheme in
``objectives``, so the tests and ``ellreg check-gradients`` hold the two
against each other. Nothing on the reconstruction or probe path imports
this module. The dense Hessians cost one solve per parameter; small meshes
only.
"""

from __future__ import annotations

import numpy as np

from . import assembly
from .forward import RegularizedForwardOperator


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

"""OLS and MOLS objectives with discrete gradients and Hessians.

Gradients and Hessian actions follow the adjoint-state scheme: one extra
solve per state, no sensitivity per parameter direction. The direct
gradient and the dense Hessians, an algebraically independent route that
the tests compare against, are in ``ellreg.oracles``.

The adjoint-route gradients and the Hessian actions take the tensors
L(.) assembled once per state (``RegularizedForwardOperator.L``), so a
Hessian action is its solves plus sparse matrix-vector products. The OLS
gradient is ``op.L(V).T @ w`` with w from ``ols_adjoint_state``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import assembly
from .forward import RegularizedForwardOperator
from .mesh import Mesh


def regularizer_eval(mesh: Mesh, A: np.ndarray):
    """Return (value, gradient, hessian_action) of the H1 term 1/2 A'WA at A."""
    A = np.asarray(A, dtype=float)
    Wm = assembly.shared_s_matrix(mesh)
    g = Wm @ A
    return 0.5 * float(A @ g), g, lambda d: Wm @ d


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def ols_value(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> float:
    """Discrete L2 misfit: 1/2 (V-Z)^T M (V-Z)."""
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    return 0.5 * float(d @ (op.M @ d))


def ols_adjoint_state(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Adjoint state w of the misfit: [K_tau(A)+eps*W] w = M (Z - V)."""
    return op.solve(op.M @ (np.asarray(Z, dtype=float) - np.asarray(V, dtype=float)))


def ols_hessian_action(op: RegularizedForwardOperator, LV: sp.csr_matrix, Lw: sp.csr_matrix,
                       dA: np.ndarray) -> np.ndarray:
    """Second-order adjoint scheme applied as an action dA -> H dA (misfit part).

    ``LV`` is ``op.L(V)`` and ``Lw`` is ``op.L(w)`` for the adjoint state w.
    With dV = -G^-1 L(V) dA and G = K_tau(A) + eps*W, the action is
    L(w)^T dV - L(V)^T G^-1 (M dV + L(w) dA): the terms L(dV)^T w = L(w)^T dV
    and the two solves of the same operator are merged.
    """
    dV = -op.solve(LV @ dA)
    return Lw.T @ dV - LV.T @ op.solve(op.M @ dV + Lw @ dA)


# ---------------------------------------------------------------------------
# MOLS
# ---------------------------------------------------------------------------

def mols_value(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> float:
    """Energy misfit: 1/2 (V-Z)^T [K_tau(A)+eps*W] (V-Z)."""
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    return 0.5 * float(d @ (op.system @ d))


def mols_gradient(LV: sp.csr_matrix, LZ: sp.csr_matrix, V: np.ndarray,
                  Z: np.ndarray) -> np.ndarray:
    """-1/2 L(V+Z)^T (V-Z) = -1/2 (L(V) + L(Z))^T (V-Z); no linear solve needed.

    ``LV`` and ``LZ`` are ``op.L(V)`` and ``op.L(Z)``; L(Z) is fixed while
    the data are, so a minimizer builds it once.
    """
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    return -0.5 * (LV.T @ d + LZ.T @ d)


def mols_hessian_action(op: RegularizedForwardOperator, LV: sp.csr_matrix,
                        dA: np.ndarray) -> np.ndarray:
    """L(V)^T [K_tau(A)+eps*W]^-1 L(V) dA with ``LV = op.L(V)``; PSD by the Gram-matrix structure."""
    return LV.T @ op.solve(LV @ dA)


def mols_preconditioner(mesh: Mesh, A: np.ndarray, V: np.ndarray, kappa: float) -> np.ndarray:
    """Jacobi preconditioner for the MOLS Hessian: diag(M_w) + kappa*diag(W).

    M_w is the P1 mass matrix weighted per triangle by w_T = |grad V_T|^2 / mean(A_T),
    the Gram matrix of the order-0 bound
    dA . L(V)^T G^-1 L(V) dA <= int dA^2 |grad V|^2 / a; the tau mass term is
    left out. Its diagonal entry at node i sums |T| w_T / 6 over the
    triangles T holding i. Positive when kappa > 0.
    """
    tris = mesh.triangles
    gv = np.einsum("tid,ti->td", mesh.grads, np.asarray(V, dtype=float)[tris])
    w = mesh.areas * np.sum(gv * gv, axis=1) / np.asarray(A, dtype=float)[tris].mean(axis=1)
    diag_mw = mesh.scatter_add(np.repeat(w[:, None] / 6.0, 3, axis=1))
    return diag_mw + kappa * assembly.shared_s_matrix(mesh).diagonal()

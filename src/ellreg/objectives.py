"""OLS and MOLS objectives with discrete gradients and Hessians.

Every first/second derivative is available through two algebraically
independent code paths: the direct matrix formulas built from the tensor
actions L(V), L(V)^T, and the adjoint-state scheme (one extra solve, no
sensitivity per parameter direction). The routes must agree to roundoff;
the tests enforce this.

The adjoint-route gradients and the Hessian actions take the tensors
L(.) assembled once per state (``RegularizedForwardOperator.L``), so a
Hessian action is its solves plus sparse matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import assembly
from .forward import RegularizedForwardOperator
from .mesh import Mesh


@dataclass(frozen=True)
class Regularizer:
    """Convex parameter regularizer: squared H1 norm or smoothed TV."""

    kind: str = "h1"  # "h1" or "tv"
    beta: float = 1e-6  # TV smoothing only

    def __post_init__(self):
        if self.kind not in ("h1", "tv"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "tv" and self.beta <= 0:
            raise ValueError("TV smoothing beta must be positive")


def regularizer_eval(reg: Regularizer, mesh: Mesh, A: np.ndarray):
    """Return (value, gradient, hessian_action) of the regularizer at A."""
    A = np.asarray(A, dtype=float)
    if reg.kind == "h1":
        Wm = assembly.shared_s_matrix(mesh)
        g = Wm @ A
        return 0.5 * float(A @ g), g, lambda d: Wm @ d
    # smoothed TV: sum_T area * sqrt(|grad a|^2 + beta^2)
    tris = mesh.triangles
    ga = np.einsum("tid,ti->td", mesh.grads, A[tris])  # (T, 2)
    s = np.sqrt(np.sum(ga * ga, axis=1) + reg.beta**2)
    value = float(np.sum(mesh.areas * s))
    contrib = (mesh.areas / s)[:, None] * np.einsum("tid,td->ti", mesh.grads, ga)
    grad = mesh.scatter_add(tris, contrib)

    def hess_action(d):
        dt = np.asarray(d, dtype=float)[tris]
        gd = np.einsum("tid,ti->td", mesh.grads, dt)
        # d/dA [ area * B^T g / s ] = area * (B^T B d / s - B^T g (g . B d) / s^3)
        c = (mesh.areas / s)[:, None] * np.einsum("tid,td->ti", mesh.grads, gd)
        c -= (mesh.areas * np.einsum("td,td->t", ga, gd) / s**3)[:, None] * np.einsum(
            "tid,td->ti", mesh.grads, ga
        )
        return mesh.scatter_add(tris, c)

    return value, grad, hess_action


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def ols_value(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> float:
    """Discrete L2 misfit: 1/2 (V-Z)^T M (V-Z)."""
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    return 0.5 * float(d @ (op.M @ d))


def ols_gradient_direct(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Direct route: -L(V)^T [K_tau(A)+eps*W]^-1 M (V-Z); no regularizer term."""
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    Q = op.solve(op.M @ d)
    return -assembly.apply_Lt(op.mesh, V, Q, op.tau)


def ols_gradient_adjoint(op: RegularizedForwardOperator, LV: sp.csr_matrix, W_adj: np.ndarray,
                         kappa: float = 0.0, reg: Optional[Regularizer] = None,
                         A: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint route: kappa*DR(A) + L(V)^T w = kappa*DR(A) + T_tau(psi_k, V, w).

    ``LV`` is ``op.L(V)`` and ``W_adj`` the adjoint state ``op.solve_adjoint(V, Z)``.
    """
    g = LV.T @ W_adj
    if kappa != 0.0:
        if reg is None or A is None:
            raise ValueError("kappa != 0 requires a regularizer and the parameter point")
        _, rg, _ = regularizer_eval(reg, op.mesh, A)
        g = g + kappa * rg
    return g


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


def _dense_L(op: RegularizedForwardOperator, U: np.ndarray) -> np.ndarray:
    """Materialize L(U) column by column as K_tau(e_k) U; small meshes only.

    Built from the assembled stiffness, not from ``assemble_L``, so it stays
    an independent reference for the assembled tensor.
    """
    m = op.mesh.node_count
    cols = [assembly.assemble_perturbed_stiffness(op.mesh, e, op.tau) @ U for e in np.eye(m)]
    return np.column_stack(cols)


def ols_hessian_dense(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Three-term dense Hessian (misfit part only); small meshes only."""
    d = np.asarray(V, dtype=float) - np.asarray(Z, dtype=float)
    LV = _dense_L(op, np.asarray(V, dtype=float))
    Q = op.solve(op.M @ d)
    LQ = _dense_L(op, Q)
    GiLV = np.column_stack([op.solve(c) for c in LV.T])
    GiLQ = np.column_stack([op.solve(c) for c in LQ.T])
    term1 = LV.T @ GiLQ
    term3 = GiLV.T @ (op.M @ GiLV)
    return term1 + term1.T + term3


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


def mols_hessian_dense(op: RegularizedForwardOperator, V: np.ndarray) -> np.ndarray:
    """Dense L(V)^T G^-1 L(V); small meshes only."""
    LV = _dense_L(op, np.asarray(V, dtype=float))
    GiLV = np.column_stack([op.solve(c) for c in LV.T])
    return LV.T @ GiLV


def mols_optimality_residual(op: RegularizedForwardOperator, V: np.ndarray, Z: np.ndarray,
                             A: np.ndarray, kappa: float, reg: Optional[Regularizer],
                             c1: float, c2: float, n_random: int = 32,
                             seed: int = 0) -> float:
    """Worst sampled violation of the MOLS variational-inequality condition.

    Evaluates -1/2 T_tau(a - A, V+Z, V-Z) - kappa*(R(A) - R(a)) over box-face
    points and seeded random interior points; at a minimizer the minimum must
    be >= -tol.
    """
    A = np.asarray(A, dtype=float)
    V = np.asarray(V, dtype=float)
    Z = np.asarray(Z, dtype=float)
    g_half = assembly.apply_Lt(op.mesh, V + Z, V - Z, op.tau)
    if kappa != 0.0 and reg is not None:
        RA, _, _ = regularizer_eval(reg, op.mesh, A)
    worst = np.inf
    for a in _vi_samples(A, c1, c2, n_random, seed):
        lhs = -0.5 * float((a - A) @ g_half)
        rhs = 0.0
        if kappa != 0.0 and reg is not None:
            Ra, _, _ = regularizer_eval(reg, op.mesh, a)
            rhs = kappa * (RA - Ra)
        worst = min(worst, lhs - rhs)
    return worst


def ols_optimality_residual(op: RegularizedForwardOperator, V: np.ndarray, P_adj: np.ndarray,
                            A: np.ndarray, kappa: float, reg: Optional[Regularizer],
                            c1: float, c2: float, n_random: int = 32,
                            seed: int = 0) -> float:
    """Worst sampled violation of T_tau(a - A, V, p) >= kappa*(R(A) - R(a))."""
    A = np.asarray(A, dtype=float)
    g = assembly.apply_Lt(op.mesh, np.asarray(V, dtype=float), np.asarray(P_adj, dtype=float), op.tau)
    if kappa != 0.0 and reg is not None:
        RA, _, _ = regularizer_eval(reg, op.mesh, A)
    worst = np.inf
    for a in _vi_samples(A, c1, c2, n_random, seed):
        lhs = float((a - A) @ g)
        rhs = 0.0
        if kappa != 0.0 and reg is not None:
            Ra, _, _ = regularizer_eval(reg, op.mesh, a)
            rhs = kappa * (RA - Ra)
        worst = min(worst, lhs - rhs)
    return worst


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

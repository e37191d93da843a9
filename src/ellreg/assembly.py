"""Discrete operators for the regularized variational problem.

All element integrals involve products of P1 functions only (degree <= 3
polynomials per triangle) and are assembled from exact closed-form element
matrices; loads with general right-hand sides use a degree-2 exact
edge-midpoint rule. Loads are volume sources only: the problem is
pure-Neumann with zero flux a du/dn on the whole boundary, so there is no
boundary term.

The trilinear form is T(a, u, v) = int a grad(u).grad(v); its tau-perturbed
variant adds tau * int a u v, which keeps positivity for a >= 0 and obeys
the operator-noise proximity bound with constant max|a|.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

# integral of phi_k phi_i phi_j over a triangle is area * _C3[k,i,j] / 60, with
# _C3 = 1 + d_ki + d_kj + d_ij + 2 d_kij: 6 for k = i = j, 2 for two equal, 1 else
_D = np.eye(3)
_C3 = 1.0 + _D[:, :, None] + _D[:, None, :] + _D + 2.0 * (_D[:, :, None] * _D)


def _nodal(mesh: Mesh, v) -> np.ndarray:
    """``v`` as a float vector with one entry per node of ``mesh``; ValueError otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.node_count,):
        raise ValueError(f"nodal vector of shape {v.shape} does not match the mesh")
    return v


def _grad_products(mesh: Mesh) -> np.ndarray:
    """(T, 3, 3) products grad(phi_i).grad(phi_j) of each triangle's basis functions."""
    return np.einsum("tid,tjd->tij", mesh.grads, mesh.grads)


def assemble_stiffness(mesh: Mesh, A: np.ndarray) -> sp.csr_matrix:
    """K(A) with K(A)_ij = int a grad(phi_i).grad(phi_j), a the P1 interpolant of A."""
    mean_a = _nodal(mesh, A)[mesh.triangles].mean(axis=1)
    gg = mesh.cached("grad_products", _grad_products)
    elem = (mesh.areas * mean_a)[:, None, None] * gg
    # rewrite each element diagonal as the negative off-diagonal sum so the
    # element matrices annihilate constants exactly, not just to roundoff
    for i in range(3):
        elem[:, i, i] = -(elem[:, i, (i + 1) % 3] + elem[:, i, (i + 2) % 3])
    return mesh.scatter_csr(elem)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Plain P1 mass matrix M_ij = int phi_i phi_j."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    elem = mesh.areas[:, None, None] * base
    return mesh.scatter_csr(elem)


def assemble_weighted_mass(mesh: Mesh, A: np.ndarray) -> sp.csr_matrix:
    """a-weighted mass matrix, (M_A)_ij = int a phi_i phi_j with a P1."""
    At = _nodal(mesh, A)[mesh.triangles]
    elem = np.einsum("kij,tk->tij", _C3, At) * (mesh.areas / 60.0)[:, None, None]
    return mesh.scatter_csr(elem)


def assemble_perturbed_stiffness(mesh: Mesh, A: np.ndarray, tau: float) -> sp.csr_matrix:
    """K_tau(A) = K(A) + tau * (a-weighted mass)."""
    K = assemble_stiffness(mesh, A)
    return perturb(K, assemble_weighted_mass(mesh, A) if tau else None, tau)


def perturb(K: sp.csr_matrix, M_a: sp.csr_matrix, tau: float) -> sp.csr_matrix:
    """K + tau*M_a, ``K`` itself at tau = 0: the one sum of mesh matrices (K_tau, L_tau, W
    and the operator's system) and the one check of its coefficient."""
    if not 0.0 <= tau < np.inf:  # False for NaN too
        raise ValueError("tau must be finite and nonnegative")
    return K if tau == 0.0 else (K + tau * M_a).tocsr()


def assemble_s_matrix(mesh: Mesh) -> sp.csr_matrix:
    """W_ij = S(phi_i, phi_j) with S the full H1 inner product (coercive, alpha0=1)."""
    return perturb(assemble_stiffness(mesh, np.ones(mesh.node_count)), shared_mass(mesh), 1.0)


def shared_mass(mesh: Mesh) -> sp.csr_matrix:
    """The mesh's mass matrix M, assembled once per mesh and read-only."""
    return mesh.cached("mass", assemble_mass)


def shared_s_matrix(mesh: Mesh) -> sp.csr_matrix:
    """The mesh's H1 Gram matrix W, assembled once per mesh and read-only."""
    return mesh.cached("s_matrix", assemble_s_matrix)


def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Exact-data load vector P_i = int f phi_i.

    ``f`` is integrated with the degree-2 exact edge-midpoint rule on each
    triangle. Noise and the data-steering term are composed on top by the
    callers (noise module and forward operator).
    """
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))  # midpoints of edges 01,12,20
    fv = f(mids[..., 0], mids[..., 1])  # (T, 3)
    fv = np.broadcast_to(np.asarray(fv, dtype=float), mids.shape[:2])
    # phi_i at midpoint of edge (j, j+1) is 1/2 when i in {j, j+1}
    w = mesh.areas / 6.0
    contrib = np.empty((len(mesh.triangles), 3))
    contrib[:, 0] = w * (fv[:, 0] + fv[:, 2])
    contrib[:, 1] = w * (fv[:, 0] + fv[:, 1])
    contrib[:, 2] = w * (fv[:, 1] + fv[:, 2])
    return mesh.scatter_add(contrib)


def assemble_L(mesh: Mesh, V: np.ndarray, tau: float = 0.0) -> sp.csr_matrix:
    """The tensor L(V) as an N x N matrix: L(V) @ dA = K_tau(dA) @ V for every dA.

    Column k holds K_tau(psi_k) V, so L(V) has the stiffness sparsity
    pattern, and L(V).T @ U = T_tau(psi_., V, U) is symmetric in (V, U).
    The stiffness part is written with the differences V_j - V_i, as the
    element stiffness rows are, so L(constant) is exactly zero at tau = 0.
    The mass part int a u v is symmetric in its three arguments, so the tau
    part of L_tau(V) is the V-weighted mass matrix M_V, summed by ``perturb``.
    """
    Vt = _nodal(mesh, V)[mesh.triangles]
    gg = mesh.cached("grad_products", _grad_products)
    # (K_e V)_i per unit coefficient and area
    kv = np.empty_like(Vt)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        kv[:, i] = gg[:, i, j] * (Vt[:, j] - Vt[:, i]) + gg[:, i, k] * (Vt[:, k] - Vt[:, i])
    # the coefficient psi_k integrates to area/3 on each triangle holding node k
    elem = np.repeat((kv * (mesh.areas / 3.0)[:, None])[:, :, None], 3, axis=2)
    return perturb(mesh.scatter_csr(elem), assemble_weighted_mass(mesh, V) if tau else None, tau)


def apply_L(mesh: Mesh, V: np.ndarray, A: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """K_tau(A) V, computed as L(V) @ A."""
    return assemble_L(mesh, V, tau) @ _nodal(mesh, A)


def apply_Lt(mesh: Mesh, V: np.ndarray, U: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """Parameter-space vector with entries T_tau(psi_k, V, U), computed as L(V).T @ U.

    It is symmetric in (V, U).
    """
    return assemble_L(mesh, V, tau).T @ _nodal(mesh, U)


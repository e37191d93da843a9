"""Discrete operators for the regularized variational problem.

All element integrals involve products of P1 functions only (degree <= 3
polynomials per triangle) and are assembled from exact closed-form element
matrices; loads with general right-hand sides use a degree-2 exact
edge-midpoint rule.

The trilinear form is T(a, u, v) = int a grad(u).grad(v); its tau-perturbed
variant adds tau * int a u v, which keeps positivity for a >= 0 and obeys
the operator-noise proximity bound with constant max|a|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

# integral of phi_k phi_i phi_j over a triangle is area * _C3[k,i,j] / 60
_C3 = np.ones((3, 3, 3))
for _k in range(3):
    for _i in range(3):
        for _j in range(3):
            s = {_k, _i, _j}
            if len(s) == 1:
                _C3[_k, _i, _j] = 6.0
            elif len(s) == 2:
                _C3[_k, _i, _j] = 2.0
del _k, _i, _j, s


@dataclass
class AdmissibleParameter:
    """Coefficient vector with box bounds."""

    A: np.ndarray
    c1: float = 0.1
    c2: float = 10.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        if self.c1 <= 0 or self.c1 >= self.c2:
            raise ValueError("need 0 < c1 < c2")

    def in_box(self) -> bool:
        return bool(np.all(self.A >= self.c1) and np.all(self.A <= self.c2))


def _grad_products(mesh: Mesh) -> np.ndarray:
    """(T, 3, 3) products grad(phi_i).grad(phi_j) of each triangle's basis functions."""
    return np.einsum("tid,tjd->tij", mesh.grads, mesh.grads)


def assemble_stiffness(mesh: Mesh, A: np.ndarray) -> sp.csr_matrix:
    """K(A) with K(A)_ij = int a grad(phi_i).grad(phi_j), a the P1 interpolant of A."""
    A = np.asarray(A, dtype=float)
    if A.shape != (mesh.node_count,):
        raise ValueError("coefficient vector does not match the mesh")
    mean_a = A[mesh.triangles].mean(axis=1)
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
    A = np.asarray(A, dtype=float)
    if A.shape != (mesh.node_count,):
        raise ValueError("coefficient vector does not match the mesh")
    At = A[mesh.triangles]
    elem = np.einsum("kij,tk->tij", _C3, At) * (mesh.areas / 60.0)[:, None, None]
    return mesh.scatter_csr(elem)


def assemble_perturbed_stiffness(mesh: Mesh, A: np.ndarray, tau: float) -> sp.csr_matrix:
    """K_tau(A) = K(A) + tau * (a-weighted mass)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    K = assemble_stiffness(mesh, A)
    if tau == 0.0:
        return K
    return (K + tau * assemble_weighted_mass(mesh, A)).tocsr()


def assemble_s_matrix(mesh: Mesh) -> sp.csr_matrix:
    """W_ij = S(phi_i, phi_j) with S the full H1 inner product (coercive, alpha0=1)."""
    ones = np.ones(mesh.node_count)
    return (assemble_stiffness(mesh, ones) + assemble_mass(mesh)).tocsr()


def shared_mass(mesh: Mesh) -> sp.csr_matrix:
    """The mesh's mass matrix M, assembled once per mesh and read-only."""
    return mesh.cached("mass", assemble_mass)


def shared_s_matrix(mesh: Mesh) -> sp.csr_matrix:
    """The mesh's H1 Gram matrix W, assembled once per mesh and read-only."""
    return mesh.cached("s_matrix", assemble_s_matrix)


def assemble_load(mesh: Mesh, f=None, g=None) -> np.ndarray:
    """Exact-data load vector P_i = int f phi_i + int_bd g phi_i.

    ``f`` is integrated with the degree-2 exact edge-midpoint rule on each
    triangle; ``g`` with Simpson's rule on each boundary edge. Noise and the
    data-steering term are composed on top by the callers (noise module and
    forward operator).
    """
    P = np.zeros(mesh.node_count)
    if f is not None:
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
        P += mesh.scatter_add(mesh.triangles, contrib)
    if g is not None:
        a = mesh.nodes[mesh.boundary_edges[:, 0]]
        b = mesh.nodes[mesh.boundary_edges[:, 1]]
        mid = 0.5 * (a + b)
        length = np.linalg.norm(b - a, axis=1)
        ga = np.broadcast_to(np.asarray(g(a[:, 0], a[:, 1]), dtype=float), length.shape)
        gb = np.broadcast_to(np.asarray(g(b[:, 0], b[:, 1]), dtype=float), length.shape)
        gm = np.broadcast_to(np.asarray(g(mid[:, 0], mid[:, 1]), dtype=float), length.shape)
        ends = np.column_stack([ga + 2.0 * gm, gb + 2.0 * gm]) * (length / 6.0)[:, None]
        P += mesh.scatter_add(mesh.boundary_edges, ends)
    return P


def assemble_L(mesh: Mesh, V: np.ndarray, tau: float = 0.0) -> sp.csr_matrix:
    """The tensor L(V) as an N x N matrix: L(V) @ dA = K_tau(dA) @ V for every dA.

    Column k holds K_tau(psi_k) V, so L(V) has the stiffness sparsity
    pattern, and L(V).T @ U = T_tau(psi_., V, U) is symmetric in (V, U).
    The stiffness part is written with the differences V_j - V_i, as the
    element stiffness rows are, so L(constant) is exactly zero at tau = 0.
    """
    V = np.asarray(V, dtype=float)
    if V.shape != (mesh.node_count,):
        raise ValueError("dimension mismatch")
    Vt = V[mesh.triangles]
    gg = mesh.cached("grad_products", _grad_products)
    # (K_e V)_i per unit coefficient and area
    kv = np.empty_like(Vt)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        kv[:, i] = gg[:, i, j] * (Vt[:, j] - Vt[:, i]) + gg[:, i, k] * (Vt[:, k] - Vt[:, i])
    # the coefficient psi_k integrates to area/3 on each triangle holding node k
    elem = np.repeat((kv * (mesh.areas / 3.0)[:, None])[:, :, None], 3, axis=2)
    if tau != 0.0:
        elem += (tau / 60.0 * mesh.areas)[:, None, None] * np.einsum("kij,tj->tik", _C3, Vt)
    return mesh.scatter_csr(elem)


def apply_L(mesh: Mesh, V: np.ndarray, A: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """K_tau(A) V, computed as L(V) @ A."""
    A = np.asarray(A, dtype=float)
    if A.shape != (mesh.node_count,):
        raise ValueError("dimension mismatch")
    return assemble_L(mesh, V, tau) @ A


def apply_Lt(mesh: Mesh, V: np.ndarray, U: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """Parameter-space vector with entries T_tau(psi_k, V, U), computed as L(V).T @ U.

    It is symmetric in (V, U).
    """
    U = np.asarray(U, dtype=float)
    if U.shape != (mesh.node_count,):
        raise ValueError("dimension mismatch")
    return assemble_L(mesh, V, tau).T @ U


def smoothed_tv(mesh: Mesh, A: np.ndarray, beta: float) -> float:
    """Smoothed total variation: sum over triangles of area*sqrt(|grad a|^2 + beta^2)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    ga = np.einsum("tid,ti->td", mesh.grads, np.asarray(A, dtype=float)[mesh.triangles])
    return float(np.sum(mesh.areas * np.sqrt(np.sum(ga * ga, axis=1) + beta * beta)))

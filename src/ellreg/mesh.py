"""Structured triangulations of the unit square with P1 nodal spaces.

Nodes are ordered row-major: node ``j*(n+1)+i`` sits at ``(i/n, j/n)``.
Each grid cell is split along the diagonal from its lower-left to its
upper-right corner, giving two counterclockwise triangles per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the unit square.

    Attributes
    ----------
    nodes : (N, 2) float array of node coordinates.
    triangles : (T, 3) int array of counterclockwise node indices.
    boundary_edges : (E, 2) int array of boundary edge endpoints.
    boundary_normals : (E, 2) float array of unit outward normals.
    h : longest edge length.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_normals: np.ndarray
    h: float
    # cached per-element geometry, filled in __post_init__
    areas: np.ndarray = field(default=None, repr=False)
    grads: np.ndarray = field(default=None, repr=False)
    # values derived from the mesh alone, built on first use (see ``cached``)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.nodes[self.triangles]  # (T, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(areas <= 0):
            raise ValueError("triangle with nonpositive signed area")
        # gradients of the three local P1 basis functions, constant per triangle
        grads = np.empty((len(self.triangles), 3, 2))
        grads[:, 1, 0] = d2[:, 1]
        grads[:, 1, 1] = -d2[:, 0]
        grads[:, 2, 0] = -d1[:, 1]
        grads[:, 2, 1] = d1[:, 0]
        grads[:, 1:] /= (2.0 * areas)[:, None, None]
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "grads", grads)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def cached(self, key: str, build):
        """``build(self)``, computed on the first call for ``key`` and shared after.

        The arrays of the shared value are made read-only, so no caller can
        change it under another.
        """
        if key not in self._cache:
            self._cache[key] = _read_only(build(self))
        return self._cache[key]

    def scatter_add(self, index: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Nodal vector whose entry i sums the ``values`` at the places where ``index`` is i.

        ``index`` holds node numbers (``triangles`` or ``boundary_edges``) and
        ``values`` has its shape.
        """
        return np.bincount(index.ravel(), weights=values.ravel(),
                           minlength=self.node_count)

    def scatter_csr(self, elem: np.ndarray) -> sp.csr_matrix:
        """Sum (T, 3, 3) element blocks into an N x N CSR matrix.

        Block entry ``elem[t, i, j]`` is added at row ``triangles[t, i]``,
        column ``triangles[t, j]``. Every matrix shares the mesh's read-only
        sparsity pattern.
        """
        indptr, indices, slot = self.cached("csr_scatter", _csr_scatter)
        data = np.bincount(slot, weights=elem.ravel(), minlength=len(indices))
        n = self.node_count
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    def export_text(self, path) -> None:
        """Write the mesh in the debugging text format (header, nodes, triangles)."""
        with open(path, "w") as fh:
            fh.write(f"nodes {len(self.nodes)} triangles {len(self.triangles)}\n")
            for x, y in self.nodes:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            for t in self.triangles:
                fh.write(f"{t[0]} {t[1]} {t[2]}\n")


@dataclass(frozen=True)
class P1Space:
    """Continuous piecewise-linear nodal space on a mesh.

    ``role`` distinguishes the parameter space (dimension m) from the state
    space (dimension n); both use the same triangulation and the same nodes
    here, so the dimensions coincide.
    """

    mesh: Mesh
    role: str = "state"

    @property
    def node_count(self) -> int:
        return self.mesh.node_count


def _csr_scatter(mesh: Mesh):
    """CSR pattern of the node graph, and the data slot of every element-block entry.

    Returns ``(indptr, indices, slot)``; ``slot[9*t + 3*i + j]`` is the
    position in the CSR data of the entry at row ``triangles[t, i]``,
    column ``triangles[t, j]``.
    """
    n = mesh.node_count
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    return indptr, (keys % n).astype(np.int32), slot


def _read_only(value):
    """Mark the arrays of an ndarray, CSR matrix or tuple of them read-only."""
    if isinstance(value, tuple):
        for v in value:
            _read_only(v)
    elif sp.issparse(value):
        for a in (value.data, value.indices, value.indptr):
            a.flags.writeable = False
    else:
        value.flags.writeable = False
    return value


def build_unit_square(n: int) -> Mesh:
    """Build the uniform n-by-n criss-cross triangulation of the unit square.

    Produces ``(n+1)**2`` nodes, ``2*n**2`` triangles and mesh size
    ``h = sqrt(2)/n``.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)  # row-major: y outer, x inner
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i + 1, j + 1), idx(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    triangles = np.asarray(tris, dtype=np.int64)

    edges = []
    normals = []
    for i in range(n):  # bottom, left to right
        edges.append((idx(i, 0), idx(i + 1, 0)))
        normals.append((0.0, -1.0))
    for j in range(n):  # right, bottom to top
        edges.append((idx(n, j), idx(n, j + 1)))
        normals.append((1.0, 0.0))
    for i in range(n):  # top
        edges.append((idx(i + 1, n), idx(i, n)))
        normals.append((0.0, 1.0))
    for j in range(n):  # left
        edges.append((idx(0, j + 1), idx(0, j)))
        normals.append((-1.0, 0.0))

    return Mesh(
        nodes=nodes,
        triangles=triangles,
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_normals=np.asarray(normals),
        h=float(np.sqrt(2.0) / n),
    )


def interpolate(space: P1Space, f) -> np.ndarray:
    """Nodal interpolation: evaluate ``f(x1, x2)`` at every node of the space."""
    x, y = space.mesh.nodes[:, 0], space.mesh.nodes[:, 1]
    vals = f(x, y)
    return np.broadcast_to(np.asarray(vals, dtype=float), x.shape).copy()


def evaluate_p1(mesh: Mesh, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the P1 interpolant with nodal values ``coeffs`` at given points.

    Brute-force point location; intended for tests on small meshes.
    """
    pts = np.atleast_2d(points)
    out = np.empty(len(pts))
    p = mesh.nodes[mesh.triangles]
    for k, (x, y) in enumerate(pts):
        found = False
        for t in range(len(mesh.triangles)):
            lam = _barycentric(p[t], x, y)
            if np.all(lam >= -1e-12):
                out[k] = lam @ coeffs[mesh.triangles[t]]
                found = True
                break
        if not found:
            raise ValueError(f"point {(x, y)} outside the mesh")
    return out if points.ndim > 1 else out[0]


def _barycentric(tri_pts, x, y):
    T = np.column_stack([tri_pts[1] - tri_pts[0], tri_pts[2] - tri_pts[0]])
    lam12 = np.linalg.solve(T, np.array([x, y]) - tri_pts[0])
    return np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])

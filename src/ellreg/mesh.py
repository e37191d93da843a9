"""Structured triangulations of the unit square and P1 nodal interpolation.

Nodes are ordered row-major: node ``j*(n+1)+i`` sits at ``(i/n, j/n)``.
Each grid cell is split along the diagonal from its lower-left to its
upper-right corner, giving two counterclockwise triangles per cell.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation of the unit square.

    Meshes compare and hash by identity, so a mesh can key a dict.

    Attributes
    ----------
    nodes : (N, 2) float array of node coordinates.
    triangles : (T, 3) int array of counterclockwise node indices.
    areas : (T,) triangle areas, computed from the two above.
    grads : (T, 3, 2) gradients of each triangle's P1 basis functions, likewise.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    # values derived from the mesh alone, built on first use (see ``cached``)
    _cache: dict = field(default_factory=dict, init=False, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock, init=False, repr=False)

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

        The mesh's reentrant lock is held from the check to the store, so
        threads that ask at once build one value, and a builder may read
        other keys. The arrays of the shared value are made read-only, so no
        caller can change it under another.
        """
        with self._lock:
            if key not in self._cache:
                self._cache[key] = _read_only(build(self))
            return self._cache[key]

    def scatter_add(self, values: np.ndarray) -> np.ndarray:
        """Nodal vector whose entry i sums the (T, 3) ``values`` at the places
        where ``triangles`` is i."""
        return np.bincount(self.triangles.ravel(), weights=values.ravel(),
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
    """Mark the arrays of an ndarray, CSR matrix or tuple of them read-only.

    Other objects (a factorization, say) are passed through unchanged.
    """
    if isinstance(value, tuple):
        for v in value:
            _read_only(v)
    elif sp.issparse(value):
        for a in (value.data, value.indices, value.indptr):
            a.flags.writeable = False
    elif isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def build_unit_square(n: int) -> Mesh:
    """Build the uniform n-by-n criss-cross triangulation of the unit square.

    Produces ``(n+1)**2`` nodes and ``2*n**2`` triangles.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)  # row-major: y outer, x inner
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    # cells row-major (j outer, i inner), each split into (a, b, c) and (a, c, d)
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return Mesh(nodes=nodes, triangles=triangles)


def interpolate(mesh: Mesh, f) -> np.ndarray:
    """Nodal P1 interpolation: evaluate ``f(x1, x2)`` at every node of the mesh."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vals = f(x, y)
    return np.broadcast_to(np.asarray(vals, dtype=float), x.shape).copy()


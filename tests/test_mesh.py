import threading
import time

import numpy as np
import pytest

from ellreg.mesh import Mesh, build_unit_square, interpolate


def test_counts_and_h():
    for n in (1, 3, 8):
        mesh = build_unit_square(n)
        assert mesh.node_count == (n + 1) ** 2
        assert len(mesh.triangles) == 2 * n**2
        p = mesh.nodes[mesh.triangles]
        longest = np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2).max()
        assert longest == pytest.approx(np.sqrt(2.0) / n, rel=1e-15)


def test_areas_sum_to_one():
    mesh = build_unit_square(7)
    assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(mesh.areas > 0)


def test_node_ordering_row_major():
    mesh = build_unit_square(3)
    # node j*(n+1)+i at (i/n, j/n)
    assert np.allclose(mesh.nodes[0], [0.0, 0.0])
    assert np.allclose(mesh.nodes[1], [1.0 / 3.0, 0.0])
    assert np.allclose(mesh.nodes[4], [0.0, 1.0 / 3.0])
    assert np.allclose(mesh.nodes[-1], [1.0, 1.0])


def _loop_connectivity(n):
    """Triangles of build_unit_square(n), built cell by cell."""
    def idx(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    return tris


def test_triangle_and_edge_order():
    # assembly scatters in triangle order, so the order fixes the summed bits
    mesh = build_unit_square(2)
    assert mesh.nodes.tolist() == [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                                   [0.0, 0.5], [0.5, 0.5], [1.0, 0.5],
                                   [0.0, 1.0], [0.5, 1.0], [1.0, 1.0]]
    assert mesh.triangles.tolist() == [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
                                       [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]]
    for n in (1, 2, 3, 7):
        mesh = build_unit_square(n)
        assert mesh.triangles.dtype == np.int64
        assert mesh.triangles.tolist() == [list(t) for t in _loop_connectivity(n)]


def test_gradients_reproduce_linear_functions():
    mesh = build_unit_square(5)
    coeffs = 2.0 * mesh.nodes[:, 0] - 3.0 * mesh.nodes[:, 1] + 0.25
    g = np.einsum("tid,ti->td", mesh.grads, coeffs[mesh.triangles])
    assert np.allclose(g[:, 0], 2.0, atol=1e-12)
    assert np.allclose(g[:, 1], -3.0, atol=1e-12)
    # basis gradients sum to zero within each triangle
    assert np.abs(mesh.grads.sum(axis=1)).max() == 0.0


def _evaluate_p1(mesh, coeffs, points):
    """The P1 function with nodal values ``coeffs`` at each point; brute-force point location."""
    p = mesh.nodes[mesh.triangles]
    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # (T, 2, 2)
    out = []
    for x in points:
        lam12 = np.linalg.solve(edges, (x - p[:, 0])[..., None])[..., 0]
        lam = np.column_stack([1.0 - lam12.sum(axis=1), lam12])  # barycentric, per triangle
        t = np.flatnonzero(np.all(lam >= -1e-12, axis=1))[0]
        out.append(lam[t] @ coeffs[mesh.triangles[t]])
    return np.array(out)


def test_interpolate_and_evaluate():
    mesh = build_unit_square(6)
    f = lambda x, y: 1.5 * x - 0.5 * y + 2.0
    coeffs = interpolate(mesh, f)
    pts = np.array([[0.3, 0.7], [0.11, 0.64], [1.0, 0.0]])
    vals = _evaluate_p1(mesh, coeffs, pts)
    assert np.allclose(vals, f(pts[:, 0], pts[:, 1]), atol=1e-12)


def test_interpolate_constant_function():
    coeffs = interpolate(build_unit_square(3), lambda x, y: np.float64(4.0))
    assert coeffs.shape == (16,)
    assert np.all(coeffs == 4.0)


def test_invalid_n_rejected():
    with pytest.raises(ValueError):
        build_unit_square(0)
    with pytest.raises(ValueError):
        build_unit_square(-2)


def test_degenerate_triangle_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    with pytest.raises(ValueError):
        Mesh(nodes=nodes, triangles=tris)


def test_mesh_compares_and_hashes_by_identity():
    m = build_unit_square(2)
    assert m == m
    assert m != build_unit_square(2)
    assert {m: 0}[m] == 0


def test_cached_builds_once_under_threads():
    mesh = build_unit_square(2)
    calls = []

    def slow_builder(m):
        calls.append(m)
        time.sleep(0.05)
        return np.arange(3.0)

    start = threading.Barrier(4)
    got = []

    def ask():
        start.wait(timeout=10)
        got.append(mesh.cached("k", slow_builder))

    workers = [threading.Thread(target=ask) for _ in range(4)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=10)
        assert not t.is_alive()
    assert calls == [mesh]
    assert len(got) == 4 and all(v is got[0] for v in got)

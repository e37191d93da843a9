import numpy as np
import pytest
import sympy as sym

from ellreg import assembly
from ellreg.mesh import Mesh, build_unit_square
from jittered import examples, random_mesh, random_meshes


def _single_triangle_mesh(p0, p1, p2):
    nodes = np.array([p0, p1, p2], dtype=float)
    return Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]))


def _sympy_basis(p):
    """Barycentric P1 basis on the triangle with vertices p (3x2 floats)."""
    x, y = sym.symbols("x y")
    mat = sym.Matrix([[1, p[0][0], p[0][1]],
                      [1, p[1][0], p[1][1]],
                      [1, p[2][0], p[2][1]]])
    phis = []
    for i in range(3):
        rhs = sym.Matrix([1 if k == i else 0 for k in range(3)])
        c = mat.solve(rhs)
        phis.append(c[0] + c[1] * x + c[2] * y)
    return phis, x, y


def _tri_integrate(expr, p, x, y):
    """Exact integral of a polynomial over the triangle via an affine map."""
    s, t = sym.symbols("s t")
    fx = p[0][0] + (p[1][0] - p[0][0]) * s + (p[2][0] - p[0][0]) * t
    fy = p[0][1] + (p[1][1] - p[0][1]) * s + (p[2][1] - p[0][1]) * t
    jac = sym.Rational(1) * sym.Matrix([[p[1][0] - p[0][0], p[2][0] - p[0][0]],
                                        [p[1][1] - p[0][1], p[2][1] - p[0][1]]]).det()
    inner = expr.subs({x: fx, y: fy}) * sym.Abs(jac)
    return sym.integrate(sym.integrate(inner, (t, 0, 1 - s)), (s, 0, 1))


# an irregular triangle with exactly representable rational vertices
_TRI = [(sym.Rational(0), sym.Rational(0)),
        (sym.Rational(3, 4), sym.Rational(1, 8)),
        (sym.Rational(1, 4), sym.Rational(5, 8))]
_TRI_F = [(0.0, 0.0), (0.75, 0.125), (0.25, 0.625)]


def test_stiffness_matches_symbolic_integration():
    mesh = _single_triangle_mesh(*_TRI_F)
    Avals = np.array([1.3, 0.7, 2.1])
    K = assembly.assemble_stiffness(mesh, Avals).toarray()

    phis, x, y = _sympy_basis(_TRI)
    a = sum(sym.nsimplify(v, rational=True) * phi for v, phi in zip(Avals, phis))
    for i in range(3):
        for j in range(3):
            integrand = a * (sym.diff(phis[i], x) * sym.diff(phis[j], x)
                             + sym.diff(phis[i], y) * sym.diff(phis[j], y))
            exact = float(_tri_integrate(integrand, _TRI, x, y))
            assert K[i, j] == pytest.approx(exact, rel=1e-13, abs=1e-15)


def test_mass_matches_symbolic_integration():
    mesh = _single_triangle_mesh(*_TRI_F)
    M = assembly.assemble_mass(mesh).toarray()
    phis, x, y = _sympy_basis(_TRI)
    for i in range(3):
        for j in range(3):
            exact = float(_tri_integrate(phis[i] * phis[j], _TRI, x, y))
            assert M[i, j] == pytest.approx(exact, rel=1e-13)


def test_weighted_mass_matches_symbolic_integration():
    mesh = _single_triangle_mesh(*_TRI_F)
    Avals = np.array([0.4, 1.9, 0.55])
    MA = assembly.assemble_weighted_mass(mesh, Avals).toarray()
    phis, x, y = _sympy_basis(_TRI)
    a = sum(sym.nsimplify(v, rational=True) * phi for v, phi in zip(Avals, phis))
    for i in range(3):
        for j in range(3):
            exact = float(_tri_integrate(a * phis[i] * phis[j], _TRI, x, y))
            assert MA[i, j] == pytest.approx(exact, rel=1e-13)


def test_load_matches_symbolic_integration():
    mesh = _single_triangle_mesh(*_TRI_F)
    # linear source: f*phi_i is quadratic, which the midpoint rule integrates exactly
    f = lambda X, Y: 2.0 * X - 0.5 * Y + 1.0
    P = assembly.assemble_load(mesh, f=f)
    phis, x, y = _sympy_basis(_TRI)
    fs = 2 * x - sym.Rational(1, 2) * y + 1
    for i in range(3):
        exact = float(_tri_integrate(fs * phis[i], _TRI, x, y))
        assert P[i] == pytest.approx(exact, rel=1e-13)


def test_stiffness_spd_on_mean_zero_complement():
    mesh = build_unit_square(5)
    rng = np.random.Generator(np.random.Philox(key=4))
    A = rng.uniform(0.1, 10.0, size=mesh.node_count)
    K = assembly.assemble_stiffness(mesh, A).toarray()
    assert np.allclose(K, K.T, atol=1e-14)
    w = np.linalg.eigvalsh(K)
    assert abs(w[0]) < 1e-12          # the constant null direction
    assert w[1] > 1e-6                # positive on the complement


@examples
@random_meshes
def test_element_row_sums_exactly_zero(n, seed):
    # the element diagonal is built as the negative off-diagonal sum, so
    # (e_ij + e_ik) + e_ii cancels exactly in floating point. On the mesh
    # with every triangle's nodes split apart, K(A) is block diagonal and
    # each block is one element matrix, unsummed.
    rng = np.random.Generator(np.random.Philox(key=seed))
    mesh = random_mesh(n, rng)
    A = rng.uniform(0.1, 10.0, size=mesh.node_count)
    T = len(mesh.triangles)
    split = Mesh(nodes=mesh.nodes[mesh.triangles].reshape(-1, 2),
                 triangles=np.arange(3 * T).reshape(T, 3))
    K = assembly.assemble_stiffness(split, A[mesh.triangles].ravel()).toarray()
    blocks = np.stack([K[3 * t:3 * t + 3, 3 * t:3 * t + 3] for t in range(T)])
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        assert np.all((blocks[:, i, j] + blocks[:, i, k]) + blocks[:, i, i] == 0.0)


def test_perturbed_stiffness_adds_weighted_mass():
    mesh = build_unit_square(4)
    rng = np.random.Generator(np.random.Philox(key=6))
    A = rng.uniform(0.5, 3.0, size=mesh.node_count)
    tau = 0.37
    Kt = assembly.assemble_perturbed_stiffness(mesh, A, tau).toarray()
    K = assembly.assemble_stiffness(mesh, A)
    MA = assembly.assemble_weighted_mass(mesh, A)
    assert np.allclose(Kt, (K + tau * MA).toarray(), atol=1e-14)
    # perturb holds the one tau check, so every entry point to K_tau and L_tau raises
    for bad in (-1e-3, np.nan, np.inf):
        for call in (lambda: assembly.assemble_perturbed_stiffness(mesh, A, bad),
                     lambda: assembly.assemble_L(mesh, A, bad),
                     lambda: assembly.apply_L(mesh, A, A, bad),
                     lambda: assembly.apply_Lt(mesh, A, A, bad),
                     lambda: assembly.perturb(K, MA, bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                call()


def test_s_matrix_is_h1_inner_product():
    mesh = build_unit_square(4)
    W = assembly.assemble_s_matrix(mesh).toarray()
    K1 = assembly.assemble_stiffness(mesh, np.ones(mesh.node_count)).toarray()
    M = assembly.assemble_mass(mesh).toarray()
    assert np.allclose(W, K1 + M, atol=1e-15)
    assert np.linalg.eigvalsh(0.5 * (W + W.T)).min() > 0


def test_apply_L_matches_assembled_matrix():
    mesh = build_unit_square(5)
    rng = np.random.Generator(np.random.Philox(key=7))
    for tau in (0.0, 0.21):
        A = rng.uniform(0.1, 10.0, size=mesh.node_count)
        V = rng.standard_normal(mesh.node_count)
        Kt = assembly.assemble_perturbed_stiffness(mesh, A, tau)
        lhs = assembly.apply_L(mesh, V, A, tau)
        rhs = Kt @ V
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_apply_Lt_transpose_identity():
    # U' L(V) dA = (L(V)' U)' dA and L(V)' U = L(U)' V
    mesh = build_unit_square(4)
    rng = np.random.Generator(np.random.Philox(key=8))
    for tau in (0.0, 0.15):
        V = rng.standard_normal(mesh.node_count)
        U = rng.standard_normal(mesh.node_count)
        dA = rng.standard_normal(mesh.node_count)
        lhs = U @ assembly.apply_L(mesh, V, dA, tau)
        rhs = dA @ assembly.apply_Lt(mesh, V, U, tau)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        sym_gap = np.linalg.norm(assembly.apply_Lt(mesh, V, U, tau)
                                 - assembly.apply_Lt(mesh, U, V, tau))
        assert sym_gap <= 1e-12 * np.linalg.norm(assembly.apply_Lt(mesh, V, U, tau))


def test_load_compatibility_decreases():
    from ellreg.experiments import f_exact
    vals = []
    for n in (10, 20, 40):
        mesh = build_unit_square(n)
        P = assembly.assemble_load(mesh, f=f_exact)
        vals.append(abs(np.ones(mesh.node_count) @ P))
    assert vals[0] < 1e-10  # compatible load: discrete total is near zero
    assert vals[2] <= vals[0] + 1e-12


def test_dimension_mismatch_rejected():
    mesh = build_unit_square(3)
    with pytest.raises(ValueError, match="does not match the mesh"):
        assembly.assemble_stiffness(mesh, np.ones(5))
    with pytest.raises(ValueError, match="does not match the mesh"):
        assembly.apply_L(mesh, np.ones(mesh.node_count), np.ones(3))
    with pytest.raises(ValueError, match="does not match the mesh"):
        assembly.assemble_weighted_mass(mesh, np.ones(5))
    with pytest.raises(ValueError, match="does not match the mesh"):
        assembly.assemble_L(mesh, np.ones(3))
    with pytest.raises(ValueError, match="does not match the mesh"):
        assembly.apply_Lt(mesh, np.ones(mesh.node_count), np.ones(3))


@examples
@random_meshes
def test_scatter_matches_add_at(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    mesh = random_mesh(n, rng)
    tris = mesh.triangles
    elem = rng.standard_normal((len(tris), 3, 3))
    dense = np.zeros((mesh.node_count, mesh.node_count))
    np.add.at(dense, (tris[:, :, None], tris[:, None, :]), elem)
    mat = mesh.scatter_csr(elem)
    assert mat.has_canonical_format
    # both sum each entry's contributions in element order, so bit for bit
    assert np.array_equal(mat.toarray(), dense)
    contrib = rng.standard_normal((len(tris), 3))
    vec = np.zeros(mesh.node_count)
    np.add.at(vec, tris, contrib)
    assert np.array_equal(mesh.scatter_add(contrib), vec)


@examples
@random_meshes
def test_assembled_L_is_the_tensor(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    mesh = random_mesh(n, rng)
    for tau in (0.0, float(rng.uniform(0.0, 1.0))):
        V, U = rng.standard_normal((2, mesh.node_count))
        dA = rng.uniform(-1.0, 2.0, size=mesh.node_count)
        LV = assembly.assemble_L(mesh, V, tau)
        KV = assembly.assemble_perturbed_stiffness(mesh, dA, tau) @ V
        assert np.linalg.norm(LV @ dA - KV) <= 1e-12 * np.linalg.norm(KV)
        LtU = LV.T @ U
        LtV = assembly.assemble_L(mesh, U, tau).T @ V
        assert np.linalg.norm(LtU - LtV) <= 1e-12 * np.linalg.norm(LtU)


@examples
@random_meshes
def test_assembled_L_of_constant_is_zero(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    mesh = random_mesh(n, rng)
    const = np.full(mesh.node_count, rng.uniform(-5.0, 5.0))
    assert not assembly.assemble_L(mesh, const).data.any()


def test_shared_matrices_are_built_once_and_read_only(monkeypatch):
    # W = K(1) + M sums the mesh's shared M, so a fresh mesh assembles M once
    mass_calls = []
    assemble_mass = assembly.assemble_mass

    def counted(mesh):
        mass_calls.append(mesh)
        return assemble_mass(mesh)

    monkeypatch.setattr(assembly, "assemble_mass", counted)
    mesh = build_unit_square(3)
    W = assembly.shared_s_matrix(mesh)
    M = assembly.shared_mass(mesh)
    assert assembly.shared_s_matrix(mesh) is W and assembly.shared_mass(mesh) is M
    assert len(mass_calls) == 1
    assert np.allclose(W.toarray(), assembly.assemble_s_matrix(mesh).toarray(), atol=1e-15)
    assert np.allclose(M.toarray(), assembly.assemble_mass(mesh).toarray(), atol=1e-15)
    with pytest.raises(ValueError):
        W.data[0] = 0.0
    with pytest.raises(ValueError):
        M.indices[0] = 0

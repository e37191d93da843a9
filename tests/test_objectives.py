import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellreg
from ellreg import assembly, objectives as obj, oracles
from ellreg.experiments import ManufacturedProblem
from ellreg.forward import RegularizedForwardOperator, ScheduleEntry
from ellreg.mesh import Mesh, build_unit_square
from ellreg.optimizer import IdentificationProblem, _EntryObjective
from jittered import examples, random_mesh, random_meshes


@pytest.fixture(scope="module")
def setup():
    prob = ManufacturedProblem.build(4)
    rng = np.random.Generator(np.random.Philox(key=20))
    A = rng.uniform(0.5, 2.0, size=prob.mesh.node_count)
    op = RegularizedForwardOperator(prob.mesh, A, eps=1e-2, tau=1e-3)
    V = op.solve_state(prob.P)
    return prob, A, op, V


def _fd_gradient(prob, A, eps, tau, value_fn, h=1e-6):
    m = len(A)
    g = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        op_p = RegularizedForwardOperator(prob.mesh, A + e, eps=eps, tau=tau)
        op_m = RegularizedForwardOperator(prob.mesh, A - e, eps=eps, tau=tau)
        g[i] = (value_fn(op_p, op_p.solve_state(prob.P))
                - value_fn(op_m, op_m.solve_state(prob.P))) / (2 * h)
    return g


def test_ols_gradient_routes_and_fd(setup):
    prob, A, op, V = setup
    g_dir = oracles.ols_gradient_direct(op, V, prob.Z)
    w = op.solve_adjoint(V, prob.Z)
    g_adj = obj.ols_gradient_adjoint(op.L(V), w)
    assert np.linalg.norm(g_dir - g_adj) <= 1e-12 * np.linalg.norm(g_dir)
    g_fd = _fd_gradient(prob, A, op.eps, op.tau,
                        lambda o, v: obj.ols_value(o, v, prob.Z))
    assert np.linalg.norm(g_fd - g_dir) <= 1e-6 * np.linalg.norm(g_fd)


def test_mols_gradient_fd(setup):
    prob, A, op, V = setup
    g = obj.mols_gradient(op.L(V), op.L(prob.Z), V, prob.Z)
    g_fd = _fd_gradient(prob, A, op.eps, op.tau,
                        lambda o, v: obj.mols_value(o, v, prob.Z))
    assert np.linalg.norm(g_fd - g) <= 1e-6 * np.linalg.norm(g_fd)


def test_ols_hessian_action_vs_dense(setup):
    prob, A, op, V = setup
    w = op.solve_adjoint(V, prob.Z)
    H = oracles.ols_hessian_dense(op, V, prob.Z)
    assert np.allclose(H, H.T, atol=1e-12)
    rng = np.random.Generator(np.random.Philox(key=21))
    for _ in range(5):
        dA = rng.standard_normal(len(A))
        act = obj.ols_hessian_action(op, op.L(V), op.L(w), dA)
        assert np.linalg.norm(H @ dA - act) <= 1e-12 * np.linalg.norm(H @ dA)


def test_mols_hessian_action_vs_dense_and_psd(setup):
    prob, A, op, V = setup
    H = oracles.mols_hessian_dense(op, V)
    assert np.allclose(H, H.T, atol=1e-12)
    assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() >= -1e-10
    rng = np.random.Generator(np.random.Philox(key=22))
    dA = rng.standard_normal(len(A))
    act = obj.mols_hessian_action(op, op.L(V), dA)
    assert np.linalg.norm(H @ dA - act) <= 1e-12 * np.linalg.norm(H @ dA)


@examples
@random_meshes
def test_mols_hessian_action_psd_on_jittered_meshes(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    mesh = random_mesh(n, rng)
    m = mesh.node_count
    A = rng.uniform(0.1, 10.0, size=m)
    eps = float(rng.uniform(1e-4, 1e-1))
    tau = float(rng.choice([0.0, rng.uniform(0.0, 1e-2)]))
    op = RegularizedForwardOperator(mesh, A, eps=eps, tau=tau)
    V = op.solve_state(rng.standard_normal(m))
    LV = op.L(V)
    for d in rng.standard_normal((3, m)):
        Hd = obj.mols_hessian_action(op, LV, d)
        assert d @ Hd >= -1e-12 * np.linalg.norm(Hd) * np.linalg.norm(d)


def test_hessians_match_fd_of_gradient(setup):
    prob, A, op, V = setup
    m = len(A)
    h = 1e-5
    H_ols = oracles.ols_hessian_dense(op, V, prob.Z)
    H_mols = oracles.mols_hessian_dense(op, V)
    Hf_ols = np.empty((m, m))
    Hf_mols = np.empty((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        op_p = RegularizedForwardOperator(prob.mesh, A + e, eps=op.eps, tau=op.tau)
        op_m = RegularizedForwardOperator(prob.mesh, A - e, eps=op.eps, tau=op.tau)
        Vp, Vm = op_p.solve_state(prob.P), op_m.solve_state(prob.P)
        Hf_ols[:, i] = (oracles.ols_gradient_direct(op_p, Vp, prob.Z)
                        - oracles.ols_gradient_direct(op_m, Vm, prob.Z)) / (2 * h)
        Hf_mols[:, i] = (obj.mols_gradient(op_p.L(Vp), op_p.L(prob.Z), Vp, prob.Z)
                         - obj.mols_gradient(op_m.L(Vm), op_m.L(prob.Z), Vm, prob.Z)) / (2 * h)
    assert np.linalg.norm(Hf_ols - H_ols) <= 1e-5 * np.linalg.norm(Hf_ols)
    assert np.linalg.norm(Hf_mols - H_mols) <= 1e-5 * np.linalg.norm(Hf_mols)


def test_h1_regularizer_derivatives(setup):
    prob, A, op, V = setup
    val, grad, hess = obj.regularizer_eval(prob.mesh, A)
    W = assembly.assemble_s_matrix(prob.mesh)
    assert val == pytest.approx(0.5 * A @ (W @ A), rel=1e-13)
    assert np.allclose(grad, W @ A, atol=1e-13)
    d = np.linspace(-1, 1, len(A))
    assert np.allclose(hess(d), W @ d, atol=1e-13)


def test_gradient_with_regularizer_term(setup):
    # the optimizer adds kappa * DR(A) to the adjoint-route misfit gradient
    prob, A, op, _ = setup
    kappa = 1e-3
    problem = IdentificationProblem(mesh=prob.mesh, P_exact=prob.P, Z_exact=prob.Z)
    entry = ScheduleEntry(eps=op.eps, tau=op.tau, nu=0.0, delta=0.0, kappa=kappa)
    fun = _EntryObjective(problem, entry, "ols")
    g, _, _ = fun.derivatives(fun.evaluate(A)[1])
    # the objective's state solves the data-steered load
    Z, P = problem.entry_data(entry)
    V = op.solve_state(P)
    g_plain = obj.ols_gradient_adjoint(op.L(V), op.solve_adjoint(V, Z))
    W = assembly.assemble_s_matrix(prob.mesh)
    assert np.allclose(g, g_plain + kappa * (W @ A), atol=1e-13)


def test_mols_preconditioner_is_weighted_mass_diagonal():
    # diag of the P1 mass matrix weighted by |grad V|^2 / mean(a) per
    # triangle, plus kappa*diag(W); gradients here come from each
    # triangle's plane through its three nodes
    rng = np.random.Generator(np.random.Philox(key=22))
    base = build_unit_square(5)
    nodes = base.nodes.copy()
    inside = (nodes > 0.0) & (nodes < 1.0)
    nodes += np.where(inside, rng.uniform(-0.02, 0.02, nodes.shape), 0.0)
    mesh = Mesh(nodes=nodes, triangles=base.triangles,
                boundary_edges=base.boundary_edges, h=base.h)
    A = rng.uniform(0.5, 2.0, size=mesh.node_count)
    V = rng.standard_normal(mesh.node_count)
    kappa = 1e-3
    p = mesh.nodes[mesh.triangles]
    Vt = V[mesh.triangles]
    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=1)
    gradV = np.linalg.solve(edges, np.stack([Vt[:, 1] - Vt[:, 0], Vt[:, 2] - Vt[:, 0]],
                                            axis=1)[..., None])[..., 0]
    weight = np.sum(gradV**2, axis=1) / A[mesh.triangles].mean(axis=1)
    base_mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Mw = mesh.scatter_csr((weight * mesh.areas)[:, None, None] * base_mass)
    expected = Mw.diagonal() + kappa * assembly.assemble_s_matrix(mesh).diagonal()
    D = obj.mols_preconditioner(mesh, A, V, kappa)
    assert np.max(np.abs(D - expected)) <= 1e-14 * np.max(expected)


def test_vi_residual_nonnegative_at_minimizer():
    # at the unconstrained interior minimizer of the sampled linear model the
    # residual must vanish, so perturb slightly and expect small magnitudes
    prob = ManufacturedProblem.build(4)
    A = np.ones(prob.mesh.node_count)
    op = RegularizedForwardOperator(prob.mesh, A, eps=1e-2)
    V = op.solve_state(prob.P)
    res = oracles.mols_optimality_residual(op, V, V.copy(), A, 0.0, 0.1, 10.0)
    # with Z = V the MOLS gradient vanishes identically, so no descent direction
    assert res >= -1e-12


def test_hot_path_does_not_import_oracles():
    # the reference routes live in ellreg.oracles alone, and nothing the
    # tables, probes or CLI import loads it
    code = ("import sys, ellreg, ellreg.experiments, ellreg.setvalued, ellreg.cli\n"
            "from ellreg import objectives\n"
            "assert 'ellreg.oracles' not in sys.modules, 'ellreg.oracles imported'\n"
            "names = ['_dense_L', 'ols_hessian_dense', 'mols_hessian_dense',\n"
            "         'ols_gradient_direct', 'ols_optimality_residual',\n"
            "         'mols_optimality_residual']\n"
            "assert not [n for n in names if hasattr(objectives, n)], 'oracle in objectives'\n")
    src = str(Path(ellreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr

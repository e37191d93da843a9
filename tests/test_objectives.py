import numpy as np
import pytest

from ellreg import assembly, objectives as obj
from ellreg.experiments import ManufacturedProblem
from ellreg.forward import RegularizedForwardOperator
from ellreg.mesh import build_unit_square


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
    g_dir = obj.ols_gradient_direct(op, V, prob.Z)
    w = op.solve_adjoint(V, prob.Z)
    g_adj = obj.ols_gradient_adjoint(op, op.L(V), w)
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
    H = obj.ols_hessian_dense(op, V, prob.Z)
    assert np.allclose(H, H.T, atol=1e-12)
    rng = np.random.Generator(np.random.Philox(key=21))
    for _ in range(5):
        dA = rng.standard_normal(len(A))
        act = obj.ols_hessian_action(op, op.L(V), op.L(w), dA)
        assert np.linalg.norm(H @ dA - act) <= 1e-12 * np.linalg.norm(H @ dA)


def test_mols_hessian_action_vs_dense_and_psd(setup):
    prob, A, op, V = setup
    H = obj.mols_hessian_dense(op, V)
    assert np.allclose(H, H.T, atol=1e-12)
    assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() >= -1e-10
    rng = np.random.Generator(np.random.Philox(key=22))
    dA = rng.standard_normal(len(A))
    act = obj.mols_hessian_action(op, op.L(V), dA)
    assert np.linalg.norm(H @ dA - act) <= 1e-12 * np.linalg.norm(H @ dA)


def test_hessians_match_fd_of_gradient(setup):
    prob, A, op, V = setup
    m = len(A)
    h = 1e-5
    H_ols = obj.ols_hessian_dense(op, V, prob.Z)
    H_mols = obj.mols_hessian_dense(op, V)
    Hf_ols = np.empty((m, m))
    Hf_mols = np.empty((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        op_p = RegularizedForwardOperator(prob.mesh, A + e, eps=op.eps, tau=op.tau)
        op_m = RegularizedForwardOperator(prob.mesh, A - e, eps=op.eps, tau=op.tau)
        Vp, Vm = op_p.solve_state(prob.P), op_m.solve_state(prob.P)
        Hf_ols[:, i] = (obj.ols_gradient_direct(op_p, Vp, prob.Z)
                        - obj.ols_gradient_direct(op_m, Vm, prob.Z)) / (2 * h)
        Hf_mols[:, i] = (obj.mols_gradient(op_p.L(Vp), op_p.L(prob.Z), Vp, prob.Z)
                         - obj.mols_gradient(op_m.L(Vm), op_m.L(prob.Z), Vm, prob.Z)) / (2 * h)
    assert np.linalg.norm(Hf_ols - H_ols) <= 1e-5 * np.linalg.norm(Hf_ols)
    assert np.linalg.norm(Hf_mols - H_mols) <= 1e-5 * np.linalg.norm(Hf_mols)


def test_h1_regularizer_derivatives(setup):
    prob, A, op, V = setup
    reg = obj.Regularizer(kind="h1")
    val, grad, hess = obj.regularizer_eval(reg, prob.mesh, A)
    W = assembly.assemble_s_matrix(prob.mesh)
    assert val == pytest.approx(0.5 * A @ (W @ A), rel=1e-13)
    assert np.allclose(grad, W @ A, atol=1e-13)
    d = np.linspace(-1, 1, len(A))
    assert np.allclose(hess(d), W @ d, atol=1e-13)


def test_tv_regularizer_derivatives(setup):
    prob, A, op, V = setup
    reg = obj.Regularizer(kind="tv", beta=1e-2)
    val, grad, hess = obj.regularizer_eval(reg, prob.mesh, A)
    h = 1e-6
    rng = np.random.Generator(np.random.Philox(key=23))
    d = rng.standard_normal(len(A))
    vp = obj.regularizer_eval(reg, prob.mesh, A + h * d)[0]
    vm = obj.regularizer_eval(reg, prob.mesh, A - h * d)[0]
    assert grad @ d == pytest.approx((vp - vm) / (2 * h), rel=1e-6)
    gp = obj.regularizer_eval(reg, prob.mesh, A + h * d)[1]
    gm = obj.regularizer_eval(reg, prob.mesh, A - h * d)[1]
    assert np.linalg.norm(hess(d) - (gp - gm) / (2 * h)) <= 1e-5 * np.linalg.norm(hess(d))


def test_regularizer_validation():
    with pytest.raises(ValueError):
        obj.Regularizer(kind="l1")
    with pytest.raises(ValueError):
        obj.Regularizer(kind="tv", beta=0.0)


def test_gradient_with_regularizer_term(setup):
    prob, A, op, V = setup
    reg = obj.Regularizer(kind="h1")
    kappa = 1e-3
    w = op.solve_adjoint(V, prob.Z)
    LV = op.L(V)
    g = obj.ols_gradient_adjoint(op, LV, w, kappa=kappa, reg=reg, A=A)
    g_plain = obj.ols_gradient_adjoint(op, LV, w)
    W = assembly.assemble_s_matrix(prob.mesh)
    assert np.allclose(g, g_plain + kappa * (W @ A), atol=1e-13)
    with pytest.raises(ValueError):
        obj.ols_gradient_adjoint(op, LV, w, kappa=kappa)


def test_vi_residual_nonnegative_at_minimizer():
    # at the unconstrained interior minimizer of the sampled linear model the
    # residual must vanish, so perturb slightly and expect small magnitudes
    prob = ManufacturedProblem.build(4)
    A = np.ones(prob.mesh.node_count)
    op = RegularizedForwardOperator(prob.mesh, A, eps=1e-2)
    V = op.solve_state(prob.P)
    res = obj.mols_optimality_residual(op, V, V.copy(), A, 0.0, None, 0.1, 10.0)
    # with Z = V the MOLS gradient vanishes identically, so no descent direction
    assert res >= -1e-12

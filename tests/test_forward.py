import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ellreg import assembly, forward, objectives as obj
from ellreg.experiments import ManufacturedProblem
from ellreg.forward import (
    LAMBDA_WARN,
    RegularizedForwardOperator,
    ScheduleEntry,
    SingularSystemError,
    default_schedule,
    riesz_dual_norm,
    solve_neumann_mean_zero,
)
from ellreg.mesh import build_unit_square
from ellreg.optimizer import IdentificationProblem, minimize
from ellreg.setvalued import ContingentProbe


@pytest.fixture(scope="module")
def prob():
    return ManufacturedProblem.build(8)


def test_solve_matches_dense(prob):
    rng = np.random.Generator(np.random.Philox(key=10))
    A = rng.uniform(0.1, 10.0, size=prob.mesh.node_count)
    op = RegularizedForwardOperator(prob.mesh, A, eps=1e-3, tau=1e-4)
    V = op.solve(prob.P)
    dense = np.linalg.solve(op.system.toarray(), prob.P)
    assert np.linalg.norm(V - dense) <= 1e-10 * np.linalg.norm(dense)


def test_solve_refines_then_raises(prob):
    # the factor of a system scaled by 1 + 1e-6 is off by 1e-6 relative, which
    # one refinement step takes to roundoff; the factor of twice the system
    # leaves a relative residual of 1/4 after it, past tolerance
    rng = np.random.Generator(np.random.Philox(key=10))
    A = rng.uniform(0.1, 10.0, size=prob.mesh.node_count)
    op = RegularizedForwardOperator(prob.mesh, A, eps=1e-3)
    V = op.solve(prob.P)
    op._lu = forward._factorize((1.0 + 1e-6) * op.system)
    assert np.linalg.norm(op.solve(prob.P) - V) <= 1e-10 * np.linalg.norm(V)
    op._lu = forward._factorize(2.0 * op.system)
    with pytest.raises(SingularSystemError, match="did not reach tolerance") as exc:
        op.solve(prob.P)
    assert exc.value.condition_estimate == op.condition_estimate


def test_system_spd_for_positive_eps(prob):
    rng = np.random.Generator(np.random.Philox(key=11))
    A = rng.uniform(0.1, 10.0, size=prob.mesh.node_count)
    op = RegularizedForwardOperator(prob.mesh, A, eps=1e-6)
    S = op.system.toarray()
    assert np.allclose(S, S.T, atol=1e-14)
    assert np.linalg.eigvalsh(0.5 * (S + S.T)).min() > 0


def test_singular_at_eps_zero(prob):
    A = np.ones(prob.mesh.node_count)
    with pytest.raises(SingularSystemError) as exc:
        RegularizedForwardOperator(prob.mesh, A, eps=0.0)
    assert exc.value.condition_estimate > 1e12


def _pivot_ratio(op):
    udiag = np.abs(op._lu.U.diagonal())
    return udiag.min() / udiag.max()


def test_near_singular_warning_flag(prob):
    mesh = prob.mesh
    ones = np.ones(mesh.node_count)
    # coefficient contrast 1e4 to 0: the eps*W rows of the a = 0 half give
    # pivots far below those of the a = 1e4 half, while the constant-mode
    # eigenvalue eps stays above LAMBDA_WARN
    contrast = np.where(mesh.nodes[:, 0] < 0.5, 1e4, 0.0)
    for A, eps, flagged in [(ones, 1e-12, True), (ones, 1e-4, False),
                            (contrast, 2e-9, True)]:
        op = RegularizedForwardOperator(mesh, A, eps=eps)
        op.solve(prob.P)
        assert "near_singular" not in op.__dict__  # computed on first read only
        # tau = 0 and K annihilates constants, so the eigenvalue is eps
        eager = eps < LAMBDA_WARN or _pivot_ratio(op) < 1e-12
        assert op.near_singular == eager == flagged
    # the last case is flagged by the pivot ratio alone
    assert eps >= LAMBDA_WARN and _pivot_ratio(op) < 1e-12


def test_every_factorization_uses_one_recipe(monkeypatch):
    recipe = {"permc_spec": "MMD_AT_PLUS_A", "panel_size": forward.LU_PANEL_SIZE,
              "options": {"SymmetricMode": True}}
    assert forward.LU_PANEL_SIZE == 2
    prob = ManufacturedProblem.build(6)
    mesh = prob.mesh
    W = assembly.shared_s_matrix(mesh)
    calls = []
    splu = spla.splu

    def recorded(a, *args, **kwargs):
        calls.append((a.shape == W.shape and (a != W).nnz == 0, args, kwargs))
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    rng = np.random.Generator(np.random.Philox(key=16))
    ContingentProbe(mesh=mesh, A_bar=prob.A_true, P=prob.P,
                    dA=rng.uniform(-1, 1, mesh.node_count),
                    schedule=default_schedule(n_entries=2)).run()
    solve_neumann_mean_zero(mesh, assembly.assemble_stiffness(mesh, prob.A_true), prob.P)
    riesz_dual_norm(mesh, rng.standard_normal(mesh.node_count))
    problem = IdentificationProblem(mesh=mesh, P_exact=prob.P, Z_exact=prob.Z, seed=0)
    minimize(problem, default_schedule(n_entries=1), "mols",
             np.full(mesh.node_count, 5.0))
    assert sum(is_w for is_w, _, _ in calls) == 1  # W's Riesz-map factor
    assert len(calls) > 4
    assert all(args == () and kwargs == recipe for _, args, kwargs in calls)


def test_negative_eps_tau_rejected(prob):
    A = np.ones(prob.mesh.node_count)
    for eps, tau in ((-1e-3, 0.0), (1e-3, -1.0), (np.nan, 0.0), (np.inf, 0.0),
                     (1e-3, np.nan), (1e-3, np.inf)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RegularizedForwardOperator(prob.mesh, A, eps=eps, tau=tau)


def test_sensitivity_finite_difference(prob):
    mesh = prob.mesh
    rng = np.random.Generator(np.random.Philox(key=12))
    A = rng.uniform(0.5, 2.0, size=mesh.node_count)
    dA = rng.standard_normal(mesh.node_count)
    eps, tau = 1e-2, 1e-3
    op = RegularizedForwardOperator(mesh, A, eps=eps, tau=tau)
    V = op.solve(prob.P)
    dV = op.solve(-(assembly.assemble_perturbed_stiffness(mesh, dA, tau) @ V))
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        Vp = RegularizedForwardOperator(mesh, A + h * dA, eps=eps, tau=tau).solve(prob.P)
        Vm = RegularizedForwardOperator(mesh, A - h * dA, eps=eps, tau=tau).solve(prob.P)
        fd = (Vp - Vm) / (2 * h)
        errs.append(np.linalg.norm(dV - fd) / np.linalg.norm(fd))
    assert min(errs) <= 1e-7


def test_second_sensitivity_finite_difference(prob):
    mesh = prob.mesh
    rng = np.random.Generator(np.random.Philox(key=13))
    A = rng.uniform(0.5, 2.0, size=mesh.node_count)
    dA = rng.standard_normal(mesh.node_count)
    eps, tau = 1e-2, 0.0
    op = RegularizedForwardOperator(mesh, A, eps=eps, tau=tau)
    V = op.solve(prob.P)
    K_dA = assembly.assemble_perturbed_stiffness(mesh, dA, tau)
    dV = op.solve(-(K_dA @ V))
    d2V = op.solve(-2.0 * (K_dA @ dV))
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        Vp = RegularizedForwardOperator(mesh, A + h * dA, eps=eps).solve(prob.P)
        Vm = RegularizedForwardOperator(mesh, A - h * dA, eps=eps).solve(prob.P)
        fd2 = (Vp - 2 * V + Vm) / h**2
        errs.append(np.linalg.norm(d2V - fd2) / np.linalg.norm(fd2))
    assert min(errs) <= 1e-5


def test_adjoint_is_weighted_residual_solve(prob):
    mesh = prob.mesh
    A = np.full(mesh.node_count, 2.0)
    op = RegularizedForwardOperator(mesh, A, eps=1e-3)
    V = op.solve(prob.P)
    w = obj.ols_adjoint_state(op, V, prob.Z)
    assert np.allclose(op.system @ w, op.M @ (prob.Z - V), atol=1e-10)


def test_neumann_mean_zero_oracle(prob):
    mesh = prob.mesh
    A = np.ones(mesh.node_count)
    K = assembly.assemble_stiffness(mesh, A)
    u = solve_neumann_mean_zero(mesh, K, prob.P)
    M = assembly.assemble_mass(mesh)
    ones = np.ones(mesh.node_count)
    # residual lies in the constant direction only, and the mean vanishes
    r = K @ u - prob.P
    r -= (r @ ones) / mesh.node_count * ones
    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(prob.P)
    assert abs(ones @ (M @ u)) < 1e-12


def test_regularized_solution_approaches_neumann_selection(prob):
    mesh = prob.mesh
    A = np.ones(mesh.node_count)
    u0 = solve_neumann_mean_zero(mesh, assembly.assemble_stiffness(mesh, A), prob.P)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        V = RegularizedForwardOperator(mesh, A, eps=eps).solve(prob.P)
        gap = V - u0
        gaps.append(np.linalg.norm(gap - gap.mean()))
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def test_riesz_dual_norm_definition(prob):
    mesh = prob.mesh
    W = assembly.assemble_s_matrix(mesh)
    rng = np.random.Generator(np.random.Philox(key=15))
    r = rng.standard_normal(mesh.node_count)
    val = riesz_dual_norm(mesh, r)
    q = np.linalg.solve(W.toarray(), r)
    assert val == pytest.approx(np.sqrt(r @ q), rel=1e-10)


def _ratios_decrease(sched):
    """eps, tau, nu, delta, kappa, tau/eps, nu/eps and delta/eps are nonincreasing."""
    seqs = [[getattr(e, k) for e in sched] for k in ("eps", "tau", "nu", "delta", "kappa")]
    seqs += [[getattr(e, k) / e.eps for e in sched] for k in ("tau", "nu", "delta")]
    return all(b <= a + 1e-15 for s in seqs for a, b in zip(s, s[1:]))


def test_schedule_default_ratios():
    sched = default_schedule()
    assert len(sched) == 8
    assert _ratios_decrease(sched)
    e0 = sched[0]
    assert e0.eps == 0.1 and e0.tau == pytest.approx(0.01)
    assert e0.nu == pytest.approx(0.1**1.5) and e0.kappa == 0.1


def test_schedule_validation():
    # a negative or non-finite eps, data-noise level delta, functional-noise
    # level nu, regularization weight kappa or perturbation tau
    for bad in (dict(eps=-1e-3), dict(delta=-0.1), dict(nu=-1e-9), dict(kappa=-1e-3),
                dict(eps=np.nan), dict(kappa=np.nan), dict(kappa=np.inf),
                dict(delta=np.nan), dict(tau=np.inf), dict(nu=np.nan)):
        with pytest.raises(ValueError, match="kappa >= 0"):
            ScheduleEntry(**{**dict(eps=1e-3, tau=0, nu=0, delta=0, kappa=0), **bad})
    bad = (
        ScheduleEntry(eps=1e-2, tau=1e-4, nu=0, delta=0, kappa=1e-2),
        ScheduleEntry(eps=1e-1, tau=1e-2, nu=0, delta=0, kappa=1e-1),
    )
    assert not _ratios_decrease(bad)


import numpy as np
import pytest
from hypothesis import given, strategies as st
from jittered import examples

from ellreg import assembly, objectives as obj, optimizer, oracles
from ellreg.experiments import ExperimentConfig, ManufacturedProblem, run_cell
from ellreg.forward import (
    RegularizationSchedule,
    ScheduleEntry,
    default_schedule,
)
from ellreg.noise import NoiseSpec
from ellreg.optimizer import (
    IdentificationProblem,
    SolveOptions,
    minimize,
    project_box,
)


def _problem(n, **kwargs):
    prob = ManufacturedProblem.build(n)
    defaults = dict(mesh=prob.mesh, P_exact=prob.P, Z_exact=prob.Z, noise=NoiseSpec(seed=0))
    defaults.update(kwargs)
    return prob, IdentificationProblem(**defaults)


def _entry(eps=1e-4, kappa=1e-4, **kw):
    return ScheduleEntry(eps=eps, tau=kw.get("tau", 0.0), nu=kw.get("nu", 0.0),
                         delta=kw.get("delta", 0.0), kappa=kappa)


@examples
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       c1=st.floats(-10.0, 10.0), width=st.floats(1e-6, 20.0))
def test_project_box(n, seed, c1, width):
    out = project_box(np.array([-5.0, 0.5, 50.0]), 0.1, 10.0)
    assert np.array_equal(out, [0.1, 0.5, 10.0])
    with pytest.raises(ValueError):
        project_box(np.ones(2), 2.0, 1.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    c2 = c1 + width
    A, B = rng.uniform(c1 - 2.0 * width, c2 + 2.0 * width, size=(2, n))
    PA, PB = project_box(A, c1, c2), project_box(B, c1, c2)
    assert np.all((PA >= c1) & (PA <= c2))
    assert np.array_equal(project_box(PA, c1, c2), PA)  # idempotent
    # nonexpansive componentwise, so in every norm
    assert np.all(np.abs(PA - PB) <= np.abs(A - B))


@pytest.mark.parametrize("objective", ["ols", "mols"])
def test_reconstruction_recovers_unit_coefficient(objective):
    prob, problem = _problem(12)
    sched = RegularizationSchedule(entries=(_entry(),))
    opts = SolveOptions(objective=objective)
    res = minimize(problem, sched, opts, np.full(prob.mesh.node_count, 5.05))
    assert res.success
    if objective == "ols":
        assert np.abs(res.A - 1.0).max() < 0.2
    else:
        # the energy misfit constrains corner nodes only weakly
        assert np.abs(res.A - 1.0).mean() < 0.1
    assert res.termination in ("grad_tol", "max_iters")
    assert res.iterations > 0
    assert len(res.entry_logs) == 1 and len(res.entry_solutions) == 1


def test_iterates_stay_in_box():
    prob, problem = _problem(8, c1=0.9, c2=1.5)
    sched = RegularizationSchedule(entries=(_entry(),))
    res = minimize(problem, sched, SolveOptions(), np.full(prob.mesh.node_count, 1.2))
    assert res.success
    assert np.all(res.A >= 0.9) and np.all(res.A <= 1.5)


def test_schedule_warm_start_improves():
    prob, problem = _problem(8)
    sched = default_schedule(n_entries=4, eps0=1e-2)
    res = minimize(problem, sched, SolveOptions(), np.full(prob.mesh.node_count, 5.05))
    assert res.success
    errs = [np.abs(a - 1.0).mean() for a in res.entry_solutions]
    assert errs[-1] <= errs[0] + 1e-12
    assert len(res.entry_params) == 4


def test_eps_zero_entry_gives_structured_failure():
    prob, problem = _problem(10)
    sched = RegularizationSchedule(entries=(
        ScheduleEntry(eps=0.0, tau=0.0, nu=0.0, delta=0.0, kappa=1e-4),))
    res = minimize(problem, sched, SolveOptions(),
                   np.full(prob.mesh.node_count, 5.05))
    assert not res.success
    assert res.termination == "singular_system"
    assert "singular" in res.failure_reason
    assert res.condition_estimate is not None
    assert res.A is None


def test_empty_schedule_rejected():
    prob, problem = _problem(4)
    with pytest.raises(ValueError):
        minimize(problem, RegularizationSchedule(entries=()), SolveOptions(),
                 np.ones(prob.mesh.node_count))


def test_solve_options_validation():
    with pytest.raises(ValueError, match="objective"):
        SolveOptions(objective="bogus")


def test_ols_vi_residual_at_minimizer():
    prob, problem = _problem(8)
    entry = _entry()
    sched = RegularizationSchedule(entries=(entry,))
    res = minimize(problem, sched, SolveOptions(), np.full(prob.mesh.node_count, 5.05))
    assert res.success
    Z, P = problem.entry_data(entry)
    op = problem.operator(res.A, entry)
    V = op.solve_state(P)
    r = oracles.ols_optimality_residual(op, V, op.solve_adjoint(V, Z), res.A, entry.kappa,
                                        problem.c1, problem.c2)
    assert r >= -1e-6


def test_data_steered_mode_changes_load():
    # without noise the load is the exact one plus the steering term eps*W*z
    prob, problem = _problem(6)
    entry = _entry(eps=1e-2)
    Z, P = problem.entry_data(entry)
    assert np.array_equal(Z, prob.Z)
    steer = entry.eps * (assembly.assemble_s_matrix(prob.mesh) @ prob.Z)
    assert np.linalg.norm(P - prob.P - steer) <= 1e-14 * np.linalg.norm(steer)


@pytest.mark.parametrize("objective", ["ols", "mols"])
def test_tensors_assembled_once_per_state(objective, monkeypatch):
    # a Hessian action must reuse the tensors of its state: per operator
    # (one per evaluated state) both build L(V); OLS builds L(w) only for a
    # state that takes a Newton step; MOLS also builds L(Z) once per entry
    prob, problem = _problem(8)
    sched = default_schedule(n_entries=2, eps0=1e-2)
    counts = {"builds": 0, "operators": 0, "hessian_actions": 0, "newton_steps": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(assembly, "assemble_L", counted("builds", assembly.assemble_L))
    monkeypatch.setattr(IdentificationProblem, "operator",
                        counted("operators", IdentificationProblem.operator))
    action = f"{objective}_hessian_action"
    monkeypatch.setattr(obj, action, counted("hessian_actions", getattr(obj, action)))
    monkeypatch.setattr(optimizer, "_cg", counted("newton_steps", optimizer._cg))
    res = minimize(problem, sched, SolveOptions(objective=objective),
                   np.full(prob.mesh.node_count, 5.05))
    assert res.success and res.termination == "grad_tol"
    # a log row per state that got derivatives: the start of each entry and
    # every accepted trial; a rejected trial builds no tensor
    states = sum(len(log) for log in res.entry_logs)
    per_step, per_entry = (1, 0) if objective == "ols" else (0, 1)
    assert counts["builds"] <= (states + per_step * counts["newton_steps"]
                                + per_entry * len(sched))
    assert counts["operators"] > states
    assert counts["hessian_actions"] > counts["builds"]


def test_cg_preconditioned_direction_matches_plain():
    rng = np.random.Generator(np.random.Philox(key=30))
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    H = (Q * np.geomspace(1.0, 100.0, 20)) @ Q.T
    g = rng.standard_normal(20)
    diag = rng.uniform(0.5, 50.0, size=20)
    p_plain, _ = optimizer._cg(lambda d: H @ d, g, optimizer.CG_TOL, optimizer.CG_MAX_ITERS)
    p_jacobi, _ = optimizer._cg(lambda d: H @ d, g, optimizer.CG_TOL, optimizer.CG_MAX_ITERS,
                                diag)
    assert np.linalg.norm(p_jacobi - p_plain) <= 1e-6 * np.linalg.norm(p_plain)
    assert np.linalg.norm(H @ p_plain + g) <= 1e-6 * np.linalg.norm(g)
    # negative curvature: CG restarts on a shifted H and still descends
    for d in (None, diag):
        p, actions = optimizer._cg(lambda v: -v, g, optimizer.CG_TOL,
                                   optimizer.CG_MAX_ITERS, d)
        assert p @ g < 0
        assert actions >= 2


@pytest.mark.parametrize("n", [30, 60])
def test_mols_cg_work_per_newton_step(n):
    result, _, _ = run_cell(ExperimentConfig(objective="mols", seed=0), n, 1e-3)
    assert result.termination == "grad_tol"
    steps = result.entry_logs[0][:-1]  # the last row met grad_tol and took no step
    assert all(row.trials >= 1 for row in steps)
    assert np.mean([row.cg_iters for row in steps]) <= 65


def test_rejected_trial_point_not_evaluated_again(monkeypatch):
    # projected trials at successive t often clamp to the same point
    seen = []
    evaluate = optimizer._EntryObjective.evaluate

    def recorded(self, A):
        seen.append(np.asarray(A).tobytes())
        return evaluate(self, A)

    monkeypatch.setattr(optimizer._EntryObjective, "evaluate", recorded)
    result, _, _ = run_cell(ExperimentConfig(objective="mols", seed=0), 30, 1e-3)
    assert result.termination == "grad_tol"
    assert all(a != b for a, b in zip(seen, seen[1:]))
    # some trials were skipped
    assert len(seen) < 1 + sum(row.trials for row in result.entry_logs[0])


def test_cg_returns_truncated_direction_after_three_shifts(monkeypatch):
    # the Rayleigh quotients CG meets underestimate the eigenvalue -100, so
    # each shift still leaves H + shift*I indefinite and all three attempts
    # end on negative curvature; _cg then returns the last attempt's iterate
    lam = np.array([-1.0, -100.0, 1.0, 2.0, 3.0])
    g = np.array([1.0, 0.01, 1.0, 1.0, 1.0])
    restarts = []

    def hess(d):
        restarts.append(np.array_equal(d, -g))  # each attempt starts from d = -g
        return lam * d

    p, actions = optimizer._cg(hess, g, optimizer.CG_TOL, optimizer.CG_MAX_ITERS)
    assert sum(restarts) == 3 and actions == len(restarts) == 6
    # one CG step along -g before the negative curvature: a scaled steepest
    # descent direction, which no shifted system with this g is solved by
    assert np.allclose(p / np.linalg.norm(p), -g / np.linalg.norm(g), rtol=0, atol=1e-15)
    assert p @ g < 0

    class Quadratic:
        """g.A + A.diag(lam).A / 2, with the state tuple _minimize_entry unpacks."""

        def evaluate(self, A):
            return g @ A + 0.5 * A @ (lam * A), (A, None, None, None)

        def derivatives(self, state):
            return g + lam * state[0], lambda d: lam * d, None

    A0 = np.zeros(5)
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    A, _, _, log, termination, _ = optimizer._minimize_entry(Quadratic(), A0, -10.0, 10.0)
    # _minimize_entry keeps the returned descent direction (no fallback to
    # -grad) and its full step passes the Armijo test
    assert log[0].cg_iters == 6 and log[0].trials == 1
    assert np.array_equal(A, A0 + p)
    assert Quadratic().evaluate(A)[0] < Quadratic().evaluate(A0)[0]
    assert termination == "max_iters"

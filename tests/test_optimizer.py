import numpy as np
import pytest

from ellreg import assembly, objectives as obj
from ellreg.experiments import ManufacturedProblem
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
    ols_optimality_check,
    project_box,
)


def _problem(n, **kwargs):
    prob = ManufacturedProblem.build(n)
    defaults = dict(mesh=prob.mesh, P_exact=prob.P, Z_exact=prob.Z,
                    reg=obj.Regularizer(kind="h1"), noise=NoiseSpec(seed=0))
    defaults.update(kwargs)
    return prob, IdentificationProblem(**defaults)


def _entry(eps=1e-4, kappa=1e-4, **kw):
    return ScheduleEntry(eps=eps, tau=kw.get("tau", 0.0), nu=kw.get("nu", 0.0),
                         delta=kw.get("delta", 0.0), kappa=kappa)


def test_project_box():
    out = project_box(np.array([-5.0, 0.5, 50.0]), 0.1, 10.0)
    assert np.array_equal(out, [0.1, 0.5, 10.0])
    with pytest.raises(ValueError):
        project_box(np.ones(2), 2.0, 1.0)


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


def test_projected_gradient_also_converges():
    prob, problem = _problem(6)
    sched = RegularizationSchedule(entries=(_entry(kappa=1e-3),))
    opts = SolveOptions(objective="ols", method="projected_gradient",
                        max_iters=2000, grad_tol=1e-4)
    res = minimize(problem, sched, opts, np.full(prob.mesh.node_count, 5.05))
    assert res.success
    assert np.abs(res.A - 1.0).max() < 0.5


def test_iterates_stay_in_box():
    prob, problem = _problem(8, c1=0.9, c2=1.5)
    sched = RegularizationSchedule(entries=(_entry(),))
    res = minimize(problem, sched, SolveOptions(), np.full(prob.mesh.node_count, 1.2))
    assert res.success
    assert np.all(res.A >= 0.9) and np.all(res.A <= 1.5)


def test_schedule_warm_start_improves():
    prob, problem = _problem(8)
    sched = default_schedule(n_entries=4, eps0=1e-2)
    res = minimize(problem, sched, SolveOptions(max_iters=100),
                   np.full(prob.mesh.node_count, 5.05))
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
    with pytest.raises(ValueError):
        SolveOptions(armijo_c1=1.5)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


def test_ols_vi_residual_at_minimizer():
    prob, problem = _problem(8)
    entry = _entry()
    sched = RegularizationSchedule(entries=(entry,))
    res = minimize(problem, sched, SolveOptions(), np.full(prob.mesh.node_count, 5.05))
    assert res.success
    assert ols_optimality_check(problem, res, entry) >= -1e-6


def test_data_steered_mode_changes_load():
    prob, problem_zero = _problem(6)
    _, problem_ds = _problem(6, ell_mode="data-steered")
    entry = _entry(eps=1e-2)
    _, P0 = problem_zero.entry_data(entry)
    _, P1 = problem_ds.entry_data(entry)
    assert not np.allclose(P0, P1)


@pytest.mark.parametrize("objective", ["ols", "mols"])
def test_tensors_assembled_once_per_state(objective, monkeypatch):
    # a Hessian action must reuse the tensors of its state: per operator
    # (one per evaluated state) MOLS builds L(V) and OLS L(V) and L(w);
    # MOLS also builds L(Z) once per schedule entry
    prob, problem = _problem(8)
    sched = default_schedule(n_entries=2, eps0=1e-2)
    counts = {"builds": 0, "operators": 0, "hessian_actions": 0}

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
    res = minimize(problem, sched, SolveOptions(objective=objective),
                   np.full(prob.mesh.node_count, 5.05))
    assert res.success
    per_state, per_entry = (2, 0) if objective == "ols" else (1, 1)
    assert counts["builds"] <= per_state * counts["operators"] + per_entry * len(sched)
    assert counts["hessian_actions"] > counts["builds"]

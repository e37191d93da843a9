import numpy as np
import pytest
import sympy as sym

from ellreg import assembly, experiments as exp
from ellreg import forward
from ellreg.cli import main
from ellreg.forward import ScheduleEntry, SingularSystemError
from ellreg.mesh import build_unit_square, interpolate
from ellreg.optimizer import IdentificationProblem, minimize
from ellreg.setvalued import ContingentProbe


def test_manufactured_solution_consistency():
    # -div(grad u) evaluated by second-order finite differences on a fine
    # grid must reproduce the closed-form source
    xs = np.linspace(0.05, 0.95, 19)
    X, Y = np.meshgrid(xs, xs)
    h = 1e-5
    lap = (exp.u_exact(X + h, Y) + exp.u_exact(X - h, Y)
           + exp.u_exact(X, Y + h) + exp.u_exact(X, Y - h)
           - 4.0 * exp.u_exact(X, Y)) / h**2
    assert np.allclose(-lap, exp.f_exact(X, Y), atol=1e-4)


def test_flux_vanishes_on_boundary():
    # du/dn = 0 on all four sides, so the compatibility condition holds with g = 0
    t = np.linspace(0.0, 1.0, 50)
    h = 1e-7
    dx_left = (exp.u_exact(h, t) - exp.u_exact(0.0, t)) / h
    dx_right = (exp.u_exact(1.0, t) - exp.u_exact(1.0 - h, t)) / h
    dy_bottom = (exp.u_exact(t, h) - exp.u_exact(t, 0.0)) / h
    dy_top = (exp.u_exact(t, 1.0) - exp.u_exact(t, 1.0 - h)) / h
    for flux in (dx_left, dx_right, dy_bottom, dy_top):
        assert np.abs(flux).max() < 1e-5


def test_manufactured_problem_shapes():
    p = exp.ManufacturedProblem.build(5)
    assert p.P.shape == (36,)
    assert p.Z.shape == (36,)
    assert np.all(p.A_true == 1.0)
    assert p.Z.min() >= -1.0 and p.Z.max() <= 1.0


def test_run_cell_produces_small_errors():
    cfg = exp.ExperimentConfig()
    res, errs, wall = exp.run_cell(cfg, 12)
    assert res.success
    assert errs["rel_l2_a"] < 0.05
    assert errs["rel_l2_u"] < 0.05
    assert wall > 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the full-space Newton step clipped to the box stops these "
    "MOLS cells on linesearch_failure (after 24, 13 and 14 rows) while success "
    "reads True; the reduced step on the free set reaches grad_tol, and the "
    "change that lands it removes this marker"))
@pytest.mark.parametrize("n", [4, 6, 8])
def test_small_mols_cells_reach_grad_tol(n):
    res, _, _ = exp.run_cell(exp.ExperimentConfig(objective="mols"), n)
    assert res.termination == "grad_tol"


@pytest.mark.parametrize("objective", ["ols", "mols"])
def test_varying_coefficient_error_falls_with_h(objective):
    # a non-constant truth a_bar = 1 + x1*x2/2, inside the box, with the same
    # u_bar: its normal derivative vanishes on all four sides, so the zero-flux
    # condition holds for every a. No fixed bound on the error until the
    # reduced Newton step (ROADMAP item 1) lands
    x, y = sym.symbols("x y")
    a_bar = 1 + x * y / 2
    u_bar = sym.cos(sym.pi * x**2) * sym.cos(2 * sym.pi * y)
    f = -(sym.diff(a_bar * sym.diff(u_bar, x), x) + sym.diff(a_bar * sym.diff(u_bar, y), y))
    a_fn, f_fn = (sym.lambdify((x, y), e, "numpy") for e in (a_bar, f))
    entry = ScheduleEntry(eps=1e-4, tau=0.0, nu=0.0, delta=0.0, kappa=1e-4)
    errors = []
    for n in (20, 40):
        mesh = build_unit_square(n)
        problem = IdentificationProblem(mesh=mesh, P_exact=assembly.assemble_load(mesh, f_fn),
                                        Z_exact=interpolate(mesh, exp.u_exact))
        res = minimize(problem, (entry,), objective, np.full(mesh.node_count, 5.05))
        assert res.termination == "grad_tol"
        A_true = interpolate(mesh, a_fn)
        M = assembly.shared_mass(mesh)
        err = res.A - A_true
        errors.append(np.sqrt((err @ (M @ err)) / (A_true @ (M @ A_true))))
    assert errors[1] < errors[0]


def test_run_table_mesh_refinement(tmp_path):
    cfg = exp.ExperimentConfig(mesh_sizes=(8, 12))
    rows = exp.run_table(cfg)
    assert [r.label for r in rows] == [f"{np.sqrt(2.0) / n:.6g}" for n in (8, 12)]
    assert rows[1].rel_l2_a < rows[0].rel_l2_a
    path = tmp_path / "t.csv"
    exp.write_table_csv(rows, path, cfg)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# objective=ols")
    assert "seed=0" in lines[0]
    assert lines[1] == ("h,rel_l2_a,rel_l2_u,rel_linf_a,rel_linf_u,rel_l2_u_interp,"
                        "iterations,termination")
    cells = lines[2].split(",")
    assert len(cells) == 8
    # full precision: the value round-trips exactly
    assert float(cells[1]) == rows[0].rel_l2_a


def test_run_table_noise_sweep(tmp_path):
    cfg = exp.ExperimentConfig(mesh_sizes=(10,), deltas=(1e-1, 1e-2))
    rows = exp.run_table(cfg)
    assert [r.label for r in rows] == ["1e-01", "1e-02"]
    assert rows[0].rel_l2_u > rows[1].rel_l2_u
    # a noise sweep's first column is named after its deltas
    path = tmp_path / "t.csv"
    exp.write_table_csv(rows, path, cfg)
    lines = path.read_text().splitlines()
    assert lines[1].startswith("delta,rel_l2_a,")
    assert lines[2].startswith("1e-01,")


def test_run_table_raises_on_singular_cell():
    with pytest.raises(SingularSystemError, match="singular"):
        exp.run_table(exp.ExperimentConfig(eps=0.0, mesh_sizes=(4,)))


def test_failure_demo_statuses(monkeypatch):
    # each demo builds its problem once: the status and condition estimate
    # come from the final operator of the reconstruction
    builds = []
    build = exp.ManufacturedProblem.build

    def counted(n):
        builds.append(n)
        return build(n)

    monkeypatch.setattr(exp.ManufacturedProblem, "build", counted)
    cfg0 = exp.ExperimentConfig(eps=0.0)
    rep = exp.run_failure_demo(cfg0, n=12)
    assert rep["status"] == "failed"
    assert "singular" in rep["reason"]
    cfg1 = exp.ExperimentConfig(eps=1e-4)
    rep1 = exp.run_failure_demo(cfg1, n=12)
    assert rep1["status"] == "success"
    assert rep1["condition_estimate"] < 1e9
    # a run that stops short of grad_tol fails too, though no system was singular
    rep2 = exp.run_failure_demo(exp.ExperimentConfig(eps=1e-12), n=8)
    assert rep2["status"] == "failed"
    assert "linesearch_failure" in rep2["reason"]
    assert builds == [12, 12, 8]


@pytest.mark.parametrize("n", [6, 8, 10])
def test_failure_demo_near_singular_stagnation(n):
    # the evaluation noise of a near-singular operator stops the line search:
    # at eps = 1e-10 once pg has fallen to 1e-6..2e-5 of its first value, which
    # is stagnation and only warns; at eps = 1e-12 at 7e-4..4e-3, short of
    # sqrt(GRAD_TOL), which fails
    rep = exp.run_failure_demo(exp.ExperimentConfig(eps=1e-10), n=n)
    assert rep["status"] == "success-with-warning"
    rep = exp.run_failure_demo(exp.ExperimentConfig(eps=1e-12), n=n)
    assert rep["status"] == "failed" and "linesearch_failure" in rep["reason"]


def test_failure_demo_reference_solve_failure(monkeypatch):
    # the demo reads only the reconstruction: a singular reference system at
    # the true coefficient cannot fail it, because it is never built
    def singular(*args, **kwargs):
        raise SingularSystemError("reference system is singular", 3.5e17)

    monkeypatch.setattr(exp, "RegularizedForwardOperator", singular)
    rep = exp.run_failure_demo(exp.ExperimentConfig(eps=1e-4), n=6)
    assert rep["status"] == "success"
    assert rep["condition_estimate"] < 1e9


def test_failure_demo_warns_on_near_singular_operator(monkeypatch, capsys):
    # eps = 1e-4 is the constant-mode eigenvalue, below a warning level of 1e-3
    monkeypatch.setattr(forward, "LAMBDA_WARN", 1e-3)
    rep = exp.run_failure_demo(exp.ExperimentConfig(eps=1e-4), n=12)
    assert rep["status"] == "success-with-warning"
    assert set(rep) == {"status", "condition_estimate"}  # no errors, no wall time
    assert main(["failure", "--eps", "1e-4", "--n", "12"]) == 0
    assert "status: success-with-warning" in capsys.readouterr().out


def test_run_cell_leaves_pivot_check_unread():
    # minimize hands back the final operator; its near_singular check, which
    # copies the U factor, runs only when a caller reads it
    result, errs, _ = exp.run_cell(exp.ExperimentConfig(), 8)
    assert errs is not None
    assert "near_singular" not in result.operator.__dict__
    assert result.condition_estimate == result.operator.condition_estimate
    assert result.operator.near_singular is False


def test_array_records_compare_by_identity():
    # records that hold arrays hash and compare as objects, not field by field
    prob, other = exp.ManufacturedProblem.build(4), exp.ManufacturedProblem.build(4)
    assert prob == prob and prob != other
    problems = [IdentificationProblem(mesh=p.mesh, P_exact=p.P, Z_exact=p.Z)
                for p in (prob, other)]
    assert problems[0] == problems[0] and problems[0] != problems[1]
    probes = [ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                              dA=np.ones(prob.mesh.node_count),
                              schedule=forward.default_schedule(n_entries=1))
              for _ in range(2)]
    assert probes[0] == probes[0] and probes[0] != probes[1]
    assert len({prob, other, *problems, *probes}) == 6

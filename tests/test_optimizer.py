import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from jittered import examples

from ellreg import assembly, objectives as obj, optimizer, oracles
from ellreg.experiments import ExperimentConfig, ManufacturedProblem, run_cell
from ellreg.forward import ScheduleEntry, SingularSystemError, default_schedule
from ellreg.optimizer import IdentificationProblem, minimize, project_box


def _problem(n, **kwargs):
    prob = ManufacturedProblem.build(n)
    defaults = dict(mesh=prob.mesh, P_exact=prob.P, Z_exact=prob.Z, seed=0)
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
    for lo, hi in ((2.0, 1.0), (np.nan, 1.0), (0.1, np.nan)):
        with pytest.raises(ValueError):
            project_box(np.ones(2), lo, hi)
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
    res = minimize(problem, (_entry(),), objective, np.full(prob.mesh.node_count, 5.05))
    assert res.success
    if objective == "ols":
        assert np.abs(res.A - 1.0).max() < 0.2
    else:
        # the energy misfit constrains corner nodes only weakly
        assert np.abs(res.A - 1.0).mean() < 0.1
    assert res.termination in ("grad_tol", "max_iters")
    assert res.iterations > 0
    assert len(res.entries) == 1


def test_iterates_stay_in_box():
    prob, problem = _problem(8, c1=0.9, c2=1.5)
    res = minimize(problem, (_entry(),), "ols", np.full(prob.mesh.node_count, 1.2))
    assert res.success
    assert np.all(res.A >= 0.9) and np.all(res.A <= 1.5)


def test_schedule_warm_start_improves():
    prob, problem = _problem(8)
    sched = default_schedule(n_entries=4, eps0=1e-2)
    res = minimize(problem, sched, "ols", np.full(prob.mesh.node_count, 5.05))
    assert res.success
    errs = [np.abs(e.A - 1.0).mean() for e in res.entries]
    assert errs[-1] <= errs[0] + 1e-12
    assert len(res.entries) == 4


@pytest.mark.parametrize("n, schedule, box, start", [
    pytest.param(4, default_schedule(n_entries=4, eps0=1e-2), {}, 5.05, id="4-4-0.01"),
    # entries stall at the noise floor, and which ones is roundoff: they end on stagnation
    pytest.param(8, default_schedule(n_entries=8, eps0=1e-1), {}, 5.05, id="8-8-0.1"),
    pytest.param(8, (_entry(),), dict(c1=0.9, c2=1.5), 1.2, id="box", marks=pytest.mark.xfail(
        strict=True, reason=(
            "ROADMAP items 1 and 4: success ignores the terminations, so this run reports "
            "success while its entry stops on linesearch_failure. A node sits at a bound and "
            "the clipped full-space step promises a decrease (-g.p 2.4e-7) that no trial "
            "shows (largest rise 6.7e-9), at pg/pg0 2e-3: a structural stall, not roundoff. "
            "An honest success, or the reduced step, removes this marker"))),
])
def test_success_requires_every_entry_to_converge(n, schedule, box, start):
    prob, problem = _problem(n, **box)
    res = minimize(problem, schedule, "ols", np.full(prob.mesh.node_count, start))
    assert not res.success or all(e.termination in ("grad_tol", "stagnation")
                                  for e in res.entries)


def test_each_entry_keeps_its_own_termination(monkeypatch):
    # the first entry runs out of iterations, the second converges from its end
    monkeypatch.setattr(optimizer, "MAX_ITERS", 5)
    prob, problem = _problem(6)
    sched = default_schedule(n_entries=2, eps0=1e-2)
    res = minimize(problem, sched, "mols", np.full(prob.mesh.node_count, 5.05))
    assert [e.termination for e in res.entries] == ["max_iters", "grad_tol"]
    assert len(res.entries[0].log) == 5
    assert res.termination == "grad_tol" and res.success
    assert res.A is res.entries[-1].A
    assert res.iterations == sum(len(e.log) for e in res.entries)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.V = None


def test_eps_zero_entry_gives_structured_failure():
    prob, problem = _problem(10)
    sched = (ScheduleEntry(eps=0.0, tau=0.0, nu=0.0, delta=0.0, kappa=1e-4),)
    res = minimize(problem, sched, "ols", np.full(prob.mesh.node_count, 5.05))
    assert not res.success
    assert res.termination == "singular_system"
    assert isinstance(res.error, SingularSystemError)
    # the reason and the condition estimate are the caught error's
    assert res.failure_reason == str(res.error) and "singular" in res.failure_reason
    assert res.condition_estimate == res.error.condition_estimate
    assert res.A is None
    # a failing later entry keeps what the entries before it produced
    prob, problem = _problem(6)
    sched = (_entry(eps=1e-2), _entry(eps=0.0))
    res = minimize(problem, sched, "mols", np.full(prob.mesh.node_count, 5.05))
    assert not res.success and res.termination == "singular_system"
    assert len(res.entries) == 1


def test_empty_schedule_rejected():
    prob, problem = _problem(4)
    A_nan = np.ones(prob.mesh.node_count)
    A_nan[3] = np.nan  # the box projection keeps NaN, so the operator would meet it
    cases = (((), np.ones(prob.mesh.node_count), "schedule"), ((_entry(),), A_nan, "A0"))
    for schedule, A0, match in cases:
        with pytest.raises(ValueError, match=match):
            minimize(problem, schedule, "ols", A0)


def test_objective_validated_before_schedule():
    # the objective is checked before anything else, an empty schedule included
    prob, problem = _problem(4)
    for schedule in ((_entry(),), ()):
        with pytest.raises(ValueError, match="objective must be 'ols' or 'mols', got 'bogus'"):
            minimize(problem, schedule, "bogus", np.ones(prob.mesh.node_count))


def test_ols_vi_residual_at_minimizer():
    prob, problem = _problem(8)
    entry = _entry()
    res = minimize(problem, (entry,), "ols", np.full(prob.mesh.node_count, 5.05))
    assert res.success
    Z, P = problem.entry_data(entry)
    op = problem.operator(res.A, entry)
    V = op.solve(P)
    r = oracles.ols_optimality_residual(op, V, obj.ols_adjoint_state(op, V, Z), res.A,
                                        entry.kappa, problem.c1, problem.c2)
    assert r >= -1e-6


_STALL = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the clipped full-space step stalls on linesearch_failure above the "
    "L-BFGS-B minimum (f 1.0534e-1, 5.8731e-2, 8.6333e-3 against 6.7261e-2, 1.8724e-2, "
    "7.8311e-3 at n = 4, 6, 8); the reduced step on the free set removes this marker"))


@pytest.mark.parametrize("objective, n", [
    ("ols", 8), ("ols", 20), ("mols", 20),
    pytest.param("mols", 4, marks=_STALL), pytest.param("mols", 6, marks=_STALL),
    pytest.param("mols", 8, marks=_STALL),
])
def test_minimize_reaches_lbfgsb_minimum(objective, n):
    # L-BFGS-B on the same value and adjoint gradient, with no Hessian, is an
    # independent route to the entry's minimum; measured agreement 1e-11 to 8e-11,
    # so 1e-9 has a margin and is never to be widened
    prob, problem = _problem(n)
    entry = _entry()
    A0 = np.full(prob.mesh.node_count, 5.05)
    res = minimize(problem, (entry,), objective, A0)
    f_min = res.entries[-1].log[-1].objective
    f_ref = oracles.entry_minimum_lbfgsb(problem, entry, objective, A0).fun
    assert abs(f_min - f_ref) <= 1e-9 * abs(f_ref)


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
    res = minimize(problem, sched, objective, np.full(prob.mesh.node_count, 5.05))
    assert res.success and res.termination == "grad_tol"
    # a log row per state that got derivatives: the start of each entry and
    # every accepted trial; a rejected trial builds no tensor
    states = sum(len(log) for log in res.entry_logs)
    per_step, per_entry = (1, 0) if objective == "ols" else (0, 1)
    assert counts["builds"] <= (states + per_step * counts["newton_steps"]
                                + per_entry * len(sched))
    assert counts["operators"] > states
    assert counts["hessian_actions"] > counts["builds"]


def _spd_case():
    """A random SPD H with condition number 100, a gradient g and a positive diagonal."""
    rng = np.random.Generator(np.random.Philox(key=30))
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    H = (Q * np.geomspace(1.0, 100.0, 20)) @ Q.T
    return H, rng.standard_normal(20), rng.uniform(0.5, 50.0, size=20)


def _pcg_iterates(H, g, diag):
    """The first 60 iterates of Jacobi-preconditioned CG on H p = -g with
    _cg's arithmetic, as pairs (p, r @ r); H must be SPD."""
    p, r = np.zeros_like(g), -g.copy()
    z = r / diag
    d, rz = z.copy(), r @ z
    iterates = []
    for _ in range(60):
        Hd = H @ d
        alpha = rz / (d @ Hd)
        p = p + alpha * d
        r = r - alpha * Hd
        iterates.append((p, r @ r))
        z = r / diag
        rz_new = r @ z
        d = z + (rz_new / rz) * d
        rz = rz_new
    return iterates


def test_cg_preconditioned_direction_matches_plain():
    H, g, diag = _spd_case()
    p_plain, _ = optimizer._cg(lambda d: H @ d, g, np.ones(20), optimizer.CG_TOL)
    p_jacobi, _ = optimizer._cg(lambda d: H @ d, g, diag, optimizer.CG_TOL)
    assert np.linalg.norm(p_jacobi - p_plain) <= 1e-6 * np.linalg.norm(p_plain)
    assert np.linalg.norm(H @ p_plain + g) <= 1e-6 * np.linalg.norm(g)
    # negative curvature: CG restarts on a shifted H and still descends
    for d in (np.ones(20), diag):
        p, actions = optimizer._cg(lambda v: -v, g, d, optimizer.CG_TOL)
        assert p @ g < 0
        assert actions >= 2


def test_cg_stops_at_first_iterate_within_tolerance():
    # _cg returns the first CG iterate with |r| <= tol*|g|, bit for bit, so
    # the loose tol of a forcing term stops earlier on the same iterates
    H, g, diag = _spd_case()
    for d in (np.ones(20), diag):
        iterates = _pcg_iterates(H, g, d)
        spent = []
        for tol in (optimizer.CG_TOL, 1e-2):
            p, actions = optimizer._cg(lambda v: H @ v, g, d, tol)
            first = next(k for k, (_, rr) in enumerate(iterates) if rr <= tol * tol * (g @ g))
            assert actions == first + 1
            assert np.array_equal(p, iterates[first][0])
            spent.append(actions)
        assert spent[1] < spent[0]


def test_ols_steps_share_the_forcing_term(monkeypatch):
    # OLS solves each step to the forcing term MOLS uses, from the cap
    # ETA_MAX down to CG_TOL as the projected gradient falls
    tols = []
    cg = optimizer._cg

    def recorded(hess, g, diag, tol):
        tols.append(tol)
        return cg(hess, g, diag, tol)

    monkeypatch.setattr(optimizer, "_cg", recorded)
    result, _, _ = run_cell(ExperimentConfig(objective="ols", seed=0), 8, 0.0)
    assert result.termination == "grad_tol"
    rows = result.entry_logs[0]
    assert len(tols) == len(rows) - 1 > 1  # the last row met grad_tol and took no step
    assert tols[0] == optimizer.ETA_MAX
    pg0 = rows[0].pg_norm
    assert tols == [max(optimizer.CG_TOL, min(optimizer.ETA_MAX, np.sqrt(row.pg_norm / pg0)))
                    for row in rows[:-1]]
    assert min(tols) < optimizer.ETA_MAX


# total Hessian actions per cell at delta 1e-3, seed 0
CG_WORK_BOUNDS = {("mols", 30): 90, ("mols", 60): 90, ("ols", 30): 330, ("ols", 60): 680}


@pytest.mark.parametrize("objective, n", list(CG_WORK_BOUNDS))
def test_cg_work_per_newton_step(objective, n):
    result, _, _ = run_cell(ExperimentConfig(objective=objective, seed=0), n, 1e-3)
    assert result.termination == "grad_tol"
    steps = result.entry_logs[0][:-1]  # the last row met grad_tol and took no step
    assert all(row.trials >= 1 for row in steps)
    assert np.mean([row.cg_iters for row in steps]) <= 65
    # a step is solved only to its forcing term, at most 1e-2 far from the
    # minimizer: MOLS takes 78 Hessian actions at n=30 and at n=60, OLS 299 and 612
    assert sum(row.cg_iters for row in steps) <= CG_WORK_BOUNDS[objective, n]


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


class _Quadratic:
    """g.A + A.diag(lam).A / 2, whose state is the point A itself;
    evaluating a point with max|A| above ``singular_above`` raises."""

    def __init__(self, g, lam, singular_above=np.inf):
        self.g, self.lam, self.singular_above = g, lam, singular_above
        self.evaluated = []

    def evaluate(self, A):
        self.evaluated.append(A.copy())
        if np.max(np.abs(A)) > self.singular_above:
            raise SingularSystemError("singular trial", np.inf)
        return self.g @ A + 0.5 * A @ (self.lam * A), A

    def derivatives(self, A):
        return self.g + self.lam * A, lambda d: self.lam * d, np.ones_like(self.g)


class _BoxQP:
    """g.A + A.H.A / 2 with a dense SPD ``H``, whose state is the point A itself."""

    def __init__(self, g, H):
        self.g, self.H = g, H

    def evaluate(self, A):
        return self.g @ A + 0.5 * A @ (self.H @ A), A

    def derivatives(self, A):
        return self.g + self.H @ A, lambda d: self.H @ d, np.ones_like(self.g)


def _box_qp_case(key, m=20):
    """(QP, its minimizer x*) on [0, 1]^m, built Moré-Toraldo style: eigenvalues of H
    logspaced in [1, 1e3]; free entries of x* in [0.2, 0.8], each entry at 0 or 1 with
    probability 1/2, where the gradient has a multiplier in [0.1, 1] pointing out of the box."""
    rng = np.random.Generator(np.random.Philox(key=key))
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    H = (Q * np.logspace(0, 3, m)) @ Q.T
    x = rng.uniform(0.2, 0.8, m)
    at_bound, upper = rng.random((2, m)) < 0.5
    x = np.where(at_bound, upper.astype(float), x)
    mu = rng.uniform(0.1, 1.0, m)
    g_star = np.where(at_bound, np.where(upper, -mu, mu), 0.0)
    return _BoxQP(g_star - H @ x, H), x


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: on these strictly convex box QPs the clipped full-space Newton step "
    "need not descend along the projection arc; every key stops 0.04-0.17 from x* at "
    "pg/pg0 0.8-1.2 (19 on linesearch_failure, key 17 on max_iters). The reduced step on "
    "the free set removes this marker"))
def test_box_qp_reaches_known_minimizer():
    misses = []
    for key in range(20):
        fun, x_star = _box_qp_case(key)
        rec, _ = optimizer._minimize_entry(fun, np.full(x_star.size, 0.5), 0.0, 1.0)
        err = np.max(np.abs(rec.A - x_star))
        if not (err <= 1e-6 and rec.termination in ("grad_tol", "stagnation")):
            misses.append((key, rec.termination, err))
    assert not misses


@pytest.mark.parametrize("reduction, full_step, rise, termination", [
    (1e-5, 1e-4, 1e-4, "stagnation"),  # pg at 1e-5 of pg0, trials rise past -g.p = 5e-10
    (1e-3, 1e-4, 1e-4, "linesearch_failure"),  # the same noise, but pg only at 1e-3 of pg0
    (1e-5, 1e-12, 1e-12, "linesearch_failure"),  # rises below -g.p: the model, not noise, fails
    (1e-5, np.inf, 1e-4, "linesearch_failure"),  # the full step is singular, not noisy
])
def test_failed_line_search_stagnates_only_at_noise_floor(monkeypatch, reduction, full_step,
                                                          rise, termination):
    # 0.5*|A|^2 from A = 1: the first step leaves pg at ``reduction`` of pg0;
    # past it every trial reads f there plus a rise (the full step's first)
    fun = _Quadratic(np.zeros(5), np.ones(5))
    evaluate, values = fun.evaluate, []

    def noisy(A):
        value, state = evaluate(A)
        k = len(fun.evaluated)
        if k == 3 and full_step == np.inf:
            raise SingularSystemError("singular trial", np.inf)
        if k >= 3:
            value = values[1] + (full_step if k == 3 else rise)
        values.append(value)
        return value, state

    fun.evaluate = noisy
    monkeypatch.setattr(optimizer, "_cg", lambda hess, g, diag, tol: (-(1 - reduction) * g, 1))
    rec, _ = optimizer._minimize_entry(fun, np.ones(5), -10.0, 10.0)
    assert len(rec.log) == 2 and rec.log[1].pg_norm == pytest.approx(reduction * rec.log[0].pg_norm)
    assert rec.termination == termination


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

    p, actions = optimizer._cg(hess, g, np.ones(5), optimizer.CG_TOL)
    assert sum(restarts) == 3 and actions == len(restarts) == 6
    # one CG step along -g before the negative curvature: a scaled steepest
    # descent direction, which no shifted system with this g is solved by
    assert np.allclose(p / np.linalg.norm(p), -g / np.linalg.norm(g), rtol=0, atol=1e-15)
    assert p @ g < 0

    fun = _Quadratic(g, lam)
    A0 = np.zeros(5)
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    rec, _ = optimizer._minimize_entry(fun, A0, -10.0, 10.0)
    # _minimize_entry keeps the returned descent direction (no fallback to
    # -grad) and its full step passes the Armijo test
    assert rec.log[0].cg_iters == 6 and rec.log[0].trials == 1
    assert np.array_equal(rec.A, A0 + p)
    assert fun.evaluate(rec.A)[0] < fun.evaluate(A0)[0]
    assert rec.termination == "max_iters"


def test_cg_shift_adds_curvature_of_shifted_operator():
    # the negative curvature a shifted attempt meets is measured on
    # H + shift*I, so the next shift is shift + neg_curv: here 0, 1.0e-8,
    # 1.0003e-6 > 1e-6 and the third attempt solves the shifted system,
    # where neg_curv alone (9.90e-7) would leave H + shift*I indefinite
    lam = np.array([-1e-6, 0.0])
    g = np.array([1e-3, 1.0])
    restarts = []

    def hess(d):
        restarts.append(np.array_equal(d, -g))
        return lam * d

    p, actions = optimizer._cg(hess, g, np.ones(2), optimizer.CG_TOL)
    assert sum(restarts) == 3 and actions == len(restarts)
    # p solves (H + shift*I) p = -g for one shift above -min(lam)
    shift = -g / p - lam
    assert shift[0] == pytest.approx(shift[1], rel=1e-6)
    assert 1e-6 < shift[0] < 1.01e-6
    assert p @ g < 0


def test_ascent_direction_falls_back_to_steepest_descent(monkeypatch):
    g = np.ones(5)
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    for p in (g, np.full(5, np.nan)):
        fun = _Quadratic(g, np.arange(1.0, 6.0))
        monkeypatch.setattr(optimizer, "_cg", lambda hess, grad, diag, tol: (p.copy(), 1))
        rec, _ = optimizer._minimize_entry(fun, np.zeros(5), -10.0, 10.0)
        # +grad is an ascent direction and a NaN one no descent direction, so
        # the step runs along -grad: the full step -g overshoots (value 2.5 > 0)
        # and the half step is accepted
        assert [list(a) for a in fun.evaluated] == [[0.0] * 5, [-1.0] * 5, [-0.5] * 5]
        assert np.array_equal(rec.A, -0.5 * g)
        assert rec.log[0].trials == 2
        assert rec.termination == "max_iters"


def test_singular_trial_is_rejected_and_step_backtracks(monkeypatch):
    g = np.ones(5)
    fun = _Quadratic(g, np.ones(5), singular_above=0.75)
    monkeypatch.setattr(optimizer, "MAX_ITERS", 1)
    rec, _ = optimizer._minimize_entry(fun, np.zeros(5), -10.0, 10.0)
    # the Newton step -g lands on a singular system: that trial counts as
    # rejected, t halves and the shorter step -g/2 is accepted
    assert [list(a) for a in fun.evaluated] == [[0.0] * 5, [-1.0] * 5, [-0.5] * 5]
    assert np.array_equal(rec.A, -0.5 * g)
    assert rec.log[0].trials == 2
    assert rec.termination == "max_iters"

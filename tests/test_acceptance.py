"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances and runtime budgets. Each test finishes by printing a single
PASS line for the criterion it covers."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ellreg import assembly, objectives as obj, oracles
from ellreg.experiments import (
    ExperimentConfig,
    ManufacturedProblem,
    run_failure_demo,
    run_table,
)
from ellreg.forward import (
    RegularizationSchedule,
    RegularizedForwardOperator,
    ScheduleEntry,
    default_schedule,
)
from ellreg.noise import NoiseSpec
from ellreg.optimizer import IdentificationProblem, SolveOptions, minimize
from ellreg.setvalued import ContingentProbe


def _report(num, text):
    print(f"\ncriterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def small():
    prob = ManufacturedProblem.build(4)
    return prob


def test_criterion_01_adjoint_direct_gradient_identity(small):
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=100))
    worst = 0.0
    for _ in range(20):
        A = rng.uniform(0.1, 10.0, size=small.mesh.node_count)
        op = RegularizedForwardOperator(small.mesh, A, eps=1e-3, tau=1e-4)
        V = op.solve_state(small.P)
        g_dir = oracles.ols_gradient_direct(op, V, small.Z)
        g_adj = obj.ols_gradient_adjoint(op.L(V), op.solve_adjoint(V, small.Z))
        worst = max(worst, np.linalg.norm(g_dir - g_adj) / np.linalg.norm(g_dir))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(1, f"adjoint vs direct OLS gradient, worst rel gap {worst:.2e} "
               f"over 20 coefficients in {elapsed:.2f}s")


def test_criterion_02_finite_difference_oracles(small):
    t0 = time.perf_counter()
    mesh = small.mesh
    rng = np.random.Generator(np.random.Philox(key=101))
    A = rng.uniform(0.5, 2.0, size=mesh.node_count)
    eps, tau = 1e-2, 1e-3
    op = RegularizedForwardOperator(mesh, A, eps=eps, tau=tau)
    V = op.solve_state(small.P)
    w = op.solve_adjoint(V, small.Z)
    g_ols = oracles.ols_gradient_direct(op, V, small.Z)
    g_mols = obj.mols_gradient(op.L(V), op.L(small.Z), V, small.Z)
    m = mesh.node_count

    def state(Aq):
        o = RegularizedForwardOperator(mesh, Aq, eps=eps, tau=tau)
        return o, o.solve_state(small.P)

    gradient_errs = {"ols": [], "mols": []}
    for h in (1e-4, 1e-5, 1e-6):
        fd_ols = np.empty(m)
        fd_mols = np.empty(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            op_p, Vp = state(A + e)
            op_m, Vm = state(A - e)
            fd_ols[i] = (obj.ols_value(op_p, Vp, small.Z)
                         - obj.ols_value(op_m, Vm, small.Z)) / (2 * h)
            fd_mols[i] = (obj.mols_value(op_p, Vp, small.Z)
                          - obj.mols_value(op_m, Vm, small.Z)) / (2 * h)
        gradient_errs["ols"].append(np.linalg.norm(fd_ols - g_ols) / np.linalg.norm(fd_ols))
        gradient_errs["mols"].append(np.linalg.norm(fd_mols - g_mols) / np.linalg.norm(fd_mols))
    assert min(gradient_errs["ols"]) <= 1e-5
    assert min(gradient_errs["mols"]) <= 1e-5

    dA = rng.standard_normal(m)
    h = 1e-5
    op_p, Vp = state(A + h * dA)
    op_m, Vm = state(A - h * dA)
    fd_Hols = (oracles.ols_gradient_direct(op_p, Vp, small.Z)
               - oracles.ols_gradient_direct(op_m, Vm, small.Z)) / (2 * h)
    fd_Hmols = (obj.mols_gradient(op_p.L(Vp), op_p.L(small.Z), Vp, small.Z)
                - obj.mols_gradient(op_m.L(Vm), op_m.L(small.Z), Vm, small.Z)) / (2 * h)
    H_ols = obj.ols_hessian_action(op, op.L(V), op.L(w), dA)
    H_mols = obj.mols_hessian_action(op, op.L(V), dA)
    err_Hols = np.linalg.norm(fd_Hols - H_ols) / np.linalg.norm(fd_Hols)
    err_Hmols = np.linalg.norm(fd_Hmols - H_mols) / np.linalg.norm(fd_Hmols)
    assert err_Hols <= 1e-4
    assert err_Hmols <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"FD oracles: grad errs ols {min(gradient_errs['ols']):.1e} "
               f"mols {min(gradient_errs['mols']):.1e}, Hessian errs "
               f"{err_Hols:.1e}/{err_Hmols:.1e} in {elapsed:.1f}s")


def test_criterion_03_mols_convexity(small):
    mesh = small.mesh
    W = assembly.assemble_s_matrix(mesh)
    rng = np.random.Generator(np.random.Philox(key=102))
    min_eig = np.inf
    for _ in range(20):
        A = rng.uniform(0.1, 10.0, size=mesh.node_count)
        eps = float(rng.uniform(1e-4, 1e-1))
        op = RegularizedForwardOperator(mesh, A, eps=eps)
        V = op.solve_state(small.P)
        H = oracles.mols_hessian_dense(op, V)
        lam = np.linalg.eigvalsh(0.5 * (H + H.T)).min()
        min_eig = min(min_eig, lam)
        assert lam >= -1e-10
        dA = rng.standard_normal(mesh.node_count)
        dV = op.solve_sensitivity(V, assembly.assemble_stiffness(mesh, dA))
        lower = eps * float(dV @ (W @ dV))
        assert dA @ (H @ dA) >= lower - 1e-10 * max(abs(lower), 1.0)
    _report(3, f"MOLS Hessian PSD over 20 points (min eig {min_eig:.1e}) "
               "and curvature dominates eps*|dV|_W^2")


def test_criterion_04_tensor_identities(small):
    mesh = small.mesh
    rng = np.random.Generator(np.random.Philox(key=103))
    for tau in (0.0, 0.1):
        for _ in range(10):
            A = rng.uniform(0.1, 10.0, size=mesh.node_count)
            V = rng.standard_normal(mesh.node_count)
            U = rng.standard_normal(mesh.node_count)
            KV = assembly.assemble_perturbed_stiffness(mesh, A, tau) @ V
            LV = assembly.apply_L(mesh, V, A, tau)
            assert np.linalg.norm(LV - KV) <= 1e-12 * np.linalg.norm(KV)
            LtVU = assembly.apply_Lt(mesh, V, U, tau)
            LtUV = assembly.apply_Lt(mesh, U, V, tau)
            assert np.linalg.norm(LtVU - LtUV) <= 1e-12 * np.linalg.norm(LtVU)
    _report(4, "L(V)A = K_tau(A)V and L(V)'U = L(U)'V to 1e-12 on random triples")


def test_criterion_05_noncoercivity_witness():
    rng = np.random.Generator(np.random.Philox(key=104))
    for n in (4, 8):
        mesh = ManufacturedProblem.build(n).mesh
        ones = np.ones(mesh.node_count)
        for _ in range(10):
            A = rng.uniform(0.1, 10.0, size=mesh.node_count)
            # operator kernel annihilates constants exactly
            assert np.abs(assembly.apply_L(mesh, ones, A)).max() == 0.0
            # assembled-matrix row sums vanish to a few ulps of the entries
            K = assembly.assemble_stiffness(mesh, A)
            assert np.abs(K @ ones).max() <= 64 * np.finfo(float).eps * np.abs(K.data).max()
            op = RegularizedForwardOperator(mesh, A, eps=1e-6)
            lam = np.linalg.eigvalsh(op.system.toarray()).min()
            assert lam > 0.0
    _report(5, "K(A) annihilates constants (operator exact, matrix to ulps); "
               "K(A)+eps*W SPD for eps>0")


def test_criterion_06_contingent_limit_rates():
    t0 = time.perf_counter()
    prob = ManufacturedProblem.build(16)
    rng = np.random.Generator(np.random.Philox(key=105))
    dA = rng.uniform(-1.0, 1.0, size=prob.mesh.node_count)
    coercive = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                               dA=dA, schedule=default_schedule(), coercive=True)
    coercive.run()
    eps = np.array([r.eps for r in coercive.records])
    fcd = np.array([r.residual_fcd for r in coercive.records])
    slope = float(np.polyfit(np.log(eps), np.log(fcd), 1)[0])
    assert 0.8 <= slope <= 1.2

    plain = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                            dA=dA, schedule=default_schedule())
    plain.run()
    rep = plain.boundedness_report()
    assert np.isfinite(rep["sup_sens_norm"]) and not rep["flagged"]
    assert abs(rep["state_gap_rate"] - 1.0) <= 0.2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, f"fcd residual rate {slope:.2f} on the coercive surrogate; "
               f"sensitivities bounded (sup {rep['sup_sens_norm']:.2f}), "
               f"state-gap rate {rep['state_gap_rate']:.2f} in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_07_table_reproduction():
    t0 = time.perf_counter()
    cfg1 = ExperimentConfig(objective="ols")
    rows1 = run_table(cfg1)
    t1 = time.perf_counter() - t0
    assert t1 < 600.0
    # anchor value and trends for the mesh-refinement table
    anchor = rows1[0].rel_l2_a
    assert 1.13e-02 / 3.0 <= anchor <= 1.13e-02 * 3.0
    a_errs = [r.rel_l2_a for r in rows1]
    u_errs = [r.rel_l2_u for r in rows1]
    assert all(b < a for a, b in zip(a_errs[:5], a_errs[1:5]))
    assert all(b < a for a, b in zip(u_errs[:5], u_errs[1:5]))

    rows2 = run_table(ExperimentConfig(objective="mols", mesh_sizes=(30,)))
    anchor2 = rows2[0].rel_l2_a
    assert 9.54e-03 / 3.0 <= anchor2 <= 9.54e-03 * 3.0

    rows3 = run_table(ExperimentConfig(objective="ols", mesh_sizes=(80,),
                                       deltas=(1e-1, 1e-2, 1e-3)))
    anchor3 = rows3[0].rel_l2_u
    assert 9.01e-02 / 3.0 <= anchor3 <= 9.01e-02 * 3.0
    u3 = [r.rel_l2_u for r in rows3]
    assert u3[0] > u3[1] > u3[2]  # errors increase with the noise level
    _report(7, f"table anchors rel-L2(a) {anchor:.2e} (ols), {anchor2:.2e} "
               f"(mols), rel-L2(u) {anchor3:.2e} at delta=1e-1; trends "
               f"monotone; Table 1 in {t1:.0f}s")


@pytest.mark.slow
def test_criterion_08_eps_zero_failure_demo():
    # h = 0.0235702 corresponds to the 60x60 mesh
    rep0 = run_failure_demo(ExperimentConfig(eps=0.0), n=60)
    assert rep0["status"] == "failed"
    assert "singular" in rep0["reason"]
    rep1 = run_failure_demo(ExperimentConfig(eps=1e-4), n=60)
    assert rep1["status"] == "success"
    _report(8, "eps=0 reconstruction fails structurally at h=0.0235702; "
               "eps=1e-4 succeeds")


def test_criterion_09_optimality_residuals():
    prob = ManufacturedProblem.build(8)
    sched = default_schedule(n_entries=4, eps0=1e-2)
    for objective in ("ols", "mols"):
        problem = IdentificationProblem(
            mesh=prob.mesh, P_exact=prob.P, Z_exact=prob.Z, noise=NoiseSpec(seed=0))
        opts = SolveOptions(objective=objective)
        res = minimize(problem, sched, opts, np.full(prob.mesh.node_count, 5.05))
        assert res.success
        violations = []
        for entry, A_star in zip(res.entry_params, res.entry_solutions):
            Z, P = problem.entry_data(entry)
            op = problem.operator(A_star, entry)
            V = op.solve_state(P)
            if objective == "ols":
                p_adj = op.solve_adjoint(V, Z)
                r = oracles.ols_optimality_residual(op, V, p_adj, A_star, entry.kappa,
                                                    0.1, 10.0)
            else:
                r = oracles.mols_optimality_residual(op, V, Z, A_star, entry.kappa,
                                                     0.1, 10.0)
            assert r >= -1e-6
            violations.append(max(0.0, -r))
        assert violations[-1] <= violations[0] + 1e-12
    _report(9, "sampled OLS/MOLS variational-inequality residuals >= -1e-6 at "
               "all schedule entries, violations nonincreasing")


def test_criterion_10_determinism_across_thread_counts(tmp_path):
    outs = []
    for threads, tag in (("1", "a"), ("4", "b"), ("1", "c")):
        out = tmp_path / tag
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-m", "ellreg.cli", "table1", "--n", "8",
             "--seed", "5", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append((out / "table1.csv").read_bytes()
                    + (out / "table1.csv.full.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    _report(10, "CLI outputs byte-identical across repeated runs and "
                "thread counts")

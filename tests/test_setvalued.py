import csv

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ellreg import assembly
from ellreg.experiments import ManufacturedProblem
from ellreg.forward import default_schedule, solve_neumann_mean_zero
from ellreg.noise import NoiseSpec, perturb_functional
from ellreg.setvalued import ContingentProbe


@pytest.fixture(scope="module")
def probe():
    prob = ManufacturedProblem.build(10)
    rng = np.random.Generator(np.random.Philox(key=30))
    dA = rng.uniform(-1.0, 1.0, size=prob.mesh.node_count)
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA,
                        schedule=default_schedule())
    p.run()
    return p


def test_fcd_residual_decays_linearly(probe):
    eps = np.array([r.eps for r in probe.records])
    fcd = np.array([r.residual_fcd for r in probe.records])
    slope = np.polyfit(np.log(eps), np.log(fcd), 1)[0]
    assert 0.8 <= slope <= 1.2
    assert fcd[-1] < fcd[0]


def test_scd_residual_decays(probe):
    eps = np.array([r.eps for r in probe.records])
    scd = np.array([r.residual_scd for r in probe.records])
    slope = np.polyfit(np.log(eps), np.log(scd), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_scd_and_equivalent_form_agree(probe):
    # with the consistent first-order solution in the tilde direction the two
    # second-order variational forms are algebraically identical
    rhs = -assembly.apply_L(probe.mesh, probe.u_bar, probe.dA2)
    dV_tilde = solve_neumann_mean_zero(probe.mesh, probe.A_bar, rhs)
    for n in (0, 3, 7):
        gap = abs(probe.scd_residual(n) - probe.scd_equivalent_residual(n, dV_tilde))
        assert gap <= 1e-12


def test_sensitivity_norms_bounded(probe):
    rep = probe.boundedness_report()
    assert np.isfinite(rep["sup_sens_norm"])
    assert not rep["flagged"]
    assert rep["state_gap_rate"] == pytest.approx(1.0, abs=0.2)


def test_state_gap_decreases(probe):
    gaps = [r.state_gap for r in probe.records]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_coercive_surrogate_small_residuals():
    prob = ManufacturedProblem.build(8)
    rng = np.random.Generator(np.random.Philox(key=31))
    dA = rng.uniform(-1.0, 1.0, size=prob.mesh.node_count)
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA,
                        schedule=default_schedule(), coercive=True)
    p.run()
    fcd = np.array([r.residual_fcd for r in p.records])
    eps = np.array([r.eps for r in p.records])
    slope = np.polyfit(np.log(eps), np.log(fcd), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_distinct_second_direction():
    prob = ManufacturedProblem.build(6)
    rng = np.random.Generator(np.random.Philox(key=32))
    m = prob.mesh.node_count
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                        dA=rng.uniform(-1, 1, m), dA2=rng.uniform(-1, 1, m),
                        schedule=default_schedule(n_entries=5))
    recs = p.run()
    scd = np.array([r.residual_scd for r in recs])
    assert scd[-1] < scd[0]


def test_csv_columns(probe, tmp_path):
    path = tmp_path / "probe.csv"
    probe.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "eps", "tau", "residual_fcd", "residual_scd",
                       "sens_norm", "state_gap"]
    assert len(rows) == 1 + len(probe.records)
    assert float(rows[1][1]) == probe.records[0].eps


def test_fixed_operands_assembled_once(monkeypatch):
    # K(A_bar), K(dA) and K(dA2) are built per probe, so an entry assembles
    # L only for its sensitivity and second-sensitivity right-hand sides
    prob = ManufacturedProblem.build(6)
    rng = np.random.Generator(np.random.Philox(key=33))
    sched = default_schedule(n_entries=4)
    builds = []
    assemble_L = assembly.assemble_L

    def counted(*args, **kwargs):
        builds.append(1)
        return assemble_L(*args, **kwargs)

    monkeypatch.setattr(assembly, "assemble_L", counted)
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                        dA=rng.uniform(-1, 1, prob.mesh.node_count), schedule=sched)
    p.run()
    assert len(builds) <= 3 * len(sched)


def test_s_matrix_factorized_once_per_mesh(monkeypatch):
    prob = ManufacturedProblem.build(6)
    W = assembly.shared_s_matrix(prob.mesh)
    factorized = []
    splu = spla.splu

    def counted(a, *args, **kwargs):
        if a.shape == W.shape and (a != W).nnz == 0:
            factorized.append(1)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    rng = np.random.Generator(np.random.Philox(key=34))
    for _ in range(2):
        ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                        dA=rng.uniform(-1, 1, prob.mesh.node_count),
                        schedule=default_schedule(n_entries=2)).run()
    perturb_functional(prob.P, prob.mesh, NoiseSpec(seed=0, nu=1e-3))
    assert len(factorized) == 1

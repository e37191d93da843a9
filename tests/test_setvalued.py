import csv

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ellreg import assembly
from ellreg.experiments import ManufacturedProblem
from ellreg.forward import (
    RegularizedForwardOperator,
    default_schedule,
    mean_zero_projection,
    riesz_dual_norm,
    solve_neumann_mean_zero,
)
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
    # second-order variational forms are algebraically identical; the
    # equivalent form has T(a_bar, dV_tilde, .) in place of -T(dA2, u_bar, .)
    rhs = -assembly.apply_L(probe.mesh, probe.u_bar, probe.dA2)
    K_bar = assembly.assemble_stiffness(probe.mesh, probe.A_bar)
    dV_tilde = solve_neumann_mean_zero(probe.mesh, K_bar, rhs)
    for n in (0, 3, 7):
        r = K_bar @ probe._sens2[n] + 2.0 * (probe.K_dA @ probe._sens[n]) - K_bar @ dV_tilde
        equivalent = riesz_dual_norm(probe.mesh, mean_zero_projection(r))
        assert abs(probe.scd_residual(n) - equivalent) <= 1e-12


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


def test_probe_requires_schedule_and_owns_records():
    prob = ManufacturedProblem.build(4)
    args = dict(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                dA=np.ones(prob.mesh.node_count))
    with pytest.raises(TypeError, match="schedule"):
        ContingentProbe(**args)
    with pytest.raises(TypeError, match="records"):
        ContingentProbe(**args, schedule=default_schedule(), records=[])


def test_csv_columns(probe, tmp_path):
    path = tmp_path / "probe.csv"
    probe.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "eps", "tau", "residual_fcd", "residual_scd",
                       "sens_norm", "state_gap"]
    assert len(rows) == 1 + len(probe.records)
    assert float(rows[1][1]) == probe.records[0].eps


def _cases(mesh, key):
    """(dA, dA2, coercive) for the four probe kinds: coercive or not, dA2 given or not."""
    rng = np.random.Generator(np.random.Philox(key=key))
    dA, dA2 = rng.uniform(-1.0, 1.0, size=(2, mesh.node_count))
    return [(dA, second, coercive) for coercive in (False, True) for second in (None, dA2)]


def test_fixed_operands_assembled_once(monkeypatch):
    # A_bar, dA and dA2 are fixed per probe: each has its stiffness and
    # weighted mass built once, and no entry assembles a tensor L(V) or a
    # K_tau(A_bar) of its own
    prob = ManufacturedProblem.build(6)
    assembly.shared_s_matrix(prob.mesh)
    names = ("assemble_L", "assemble_stiffness", "assemble_weighted_mass",
             "assemble_perturbed_stiffness")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(assembly, name, counted(name, getattr(assembly, name)))
    for dA, dA2, coercive in _cases(prob.mesh, 33):
        calls.update(dict.fromkeys(names, 0))
        ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA, dA2=dA2,
                        schedule=default_schedule(n_entries=4), coercive=coercive).run()
        operands = 2 if dA2 is None else 3
        assert calls == {"assemble_L": 0, "assemble_stiffness": operands,
                         "assemble_weighted_mass": operands,
                         "assemble_perturbed_stiffness": 0}


def _oracle_records(mesh, A_bar, P, dA, dA2, schedule, coercive):
    """Probe records with every right-hand side built through the tensor L(V)."""
    dA2 = dA if dA2 is None else dA2
    W = assembly.shared_s_matrix(mesh)
    K_bar = assembly.assemble_stiffness(mesh, A_bar)
    if coercive:
        K_bar = K_bar + W
        u_bar = RegularizedForwardOperator(mesh, A_bar, eps=1.0).solve_state(P)
    else:
        u_bar = solve_neumann_mean_zero(mesh, K_bar, P)

    def norm(v):
        return np.sqrt(v @ (W @ v))

    def dual(r):
        return riesz_dual_norm(mesh, mean_zero_projection(r))

    records = []
    for e in schedule:
        op = RegularizedForwardOperator(mesh, A_bar, eps=e.eps + float(coercive), tau=e.tau)
        V = op.solve_state(P)
        dV1 = op.solve(-assembly.apply_L(mesh, V, dA, e.tau))
        dV_tilde = op.solve(-assembly.apply_L(mesh, V, dA2, e.tau))
        d2V = op.solve(-2.0 * (assembly.assemble_L(mesh, dV1, e.tau) @ dA)) + dV_tilde
        fcd = dual(K_bar @ dV1 + assembly.apply_L(mesh, u_bar, dA))
        scd = dual(K_bar @ d2V + 2.0 * assembly.apply_L(mesh, dV1, dA)
                   + assembly.apply_L(mesh, u_bar, dA2))
        records.append([fcd, scd, norm(dV1), norm(V - u_bar)])
    return np.array(records)


def test_records_match_tensor_oracle():
    prob = ManufacturedProblem.build(20)
    sched = default_schedule()
    for dA, dA2, coercive in _cases(prob.mesh, 35):
        p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA, dA2=dA2,
                            schedule=sched, coercive=coercive)
        got = np.array([[r.residual_fcd, r.residual_scd, r.sens_norm, r.state_gap]
                        for r in p.run()])
        ref = _oracle_records(prob.mesh, prob.A_true, prob.P, dA, dA2, sched, coercive)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


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
    perturb_functional(prob.P, prob.mesh, NoiseSpec(seed=0), 1e-3)
    assert len(factorized) == 1

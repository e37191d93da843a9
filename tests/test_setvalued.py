import csv
import multiprocessing
import os
import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ellreg import assembly
from ellreg.experiments import ManufacturedProblem
from ellreg.forward import (
    RegularizedForwardOperator,
    ScheduleEntry,
    SingularSystemError,
    default_schedule,
    riesz_dual_norm,
    solve_neumann_mean_zero,
)
from ellreg.noise import perturb_functional
from ellreg.setvalued import ContingentProbe, ProbeRecord, _worker_count


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
    mesh = probe.mesh
    rhs = -assembly.apply_L(mesh, probe.u_bar, probe.dA2)
    K_bar = assembly.assemble_stiffness(mesh, probe.A_bar)
    dV_tilde = solve_neumann_mean_zero(mesh, K_bar, rhs)
    for n in (0, 3, 7):
        # the entry's sensitivities, rebuilt outside the probe (dA2 is dA here)
        entry = probe.schedule[n]
        op = RegularizedForwardOperator(mesh, probe.A_bar, eps=entry.eps, tau=entry.tau)
        K1 = assembly.assemble_perturbed_stiffness(mesh, probe.dA, entry.tau)
        K1V = K1 @ op.solve(probe.P)
        dV = op.solve(-K1V)
        d2V = op.solve(-(2.0 * (K1 @ dV) + K1V))
        r = K_bar @ d2V + 2.0 * (probe.K_dA @ dV) - K_bar @ dV_tilde
        equivalent = riesz_dual_norm(mesh, r)
        assert abs(probe.scd_residual(dV, d2V) - equivalent) <= 1e-12
        # the residuals are functions of the vectors they are given
        assert probe.fcd_residual(dV) == probe.records[n].residual_fcd
        assert probe.scd_residual(dV, d2V) == probe.records[n].residual_scd


def test_plain_residuals_annihilate_constants():
    # K(a)*1 = 0 and K(a) is symmetric, so the pure-Neumann residuals the probe
    # measures have no constant component to project out (measured: at most 9.6e-14)
    for n in (8, 16, 20):
        prob = ManufacturedProblem.build(n)
        mesh = prob.mesh
        for dA, dA2, _ in _cases(mesh, 37)[:2]:  # plain probe, dA2 absent and given
            p = ContingentProbe(mesh=mesh, A_bar=prob.A_true, P=prob.P, dA=dA, dA2=dA2,
                                schedule=default_schedule())
            for entry in p.schedule:
                op = RegularizedForwardOperator(mesh, p.A_bar, eps=entry.eps, tau=entry.tau)
                V = op.solve(p.P)
                K1 = assembly.assemble_perturbed_stiffness(mesh, p.dA, entry.tau)
                K2 = assembly.assemble_perturbed_stiffness(mesh, p.dA2, entry.tau)
                dV = op.solve(-(K1 @ V))
                d2V = op.solve(-(2.0 * (K1 @ dV) + K2 @ V))
                fcd = p.K_bar @ dV + p.K_dA @ p.u_bar
                scd = p.K_bar @ d2V + 2.0 * (p.K_dA @ dV) + p.K_dA2 @ p.u_bar
                for r in (fcd, scd):
                    assert abs(r.sum()) <= 1e-12 * np.abs(r).sum()
                assert p.fcd_residual(dV) == riesz_dual_norm(mesh, fcd)
                assert p.scd_residual(dV, d2V) == riesz_dual_norm(mesh, scd)


def test_sensitivity_norms_bounded(probe):
    rep = probe.boundedness_report()
    assert np.isfinite(rep["sup_sens_norm"])
    assert not rep["flagged"]
    assert rep["state_gap_rate"] == pytest.approx(1.0, abs=0.2)


def test_boundedness_report_flags_spike_and_skips_zero_gaps():
    prob = ManufacturedProblem.build(4)
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                        dA=np.ones(prob.mesh.node_count), schedule=default_schedule())
    eps = [e.eps for e in p.schedule]
    sens = [1.0] * (len(eps) - 1) + [11.0]  # one norm above ten times the median
    p.records = [ProbeRecord(n=n, eps=e, tau=0.0, residual_fcd=0.0, residual_scd=0.0,
                             sens_norm=s, state_gap=0.0)
                 for n, (e, s) in enumerate(zip(eps, sens))]
    rep = p.boundedness_report()
    assert rep["sup_sens_norm"] == 11.0
    assert rep["flagged"]
    assert np.isnan(rep["state_gap_rate"])  # no positive gap to fit a rate to


def test_boundedness_report_needs_run():
    prob = ManufacturedProblem.build(4)
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                        dA=np.ones(prob.mesh.node_count), schedule=default_schedule())
    with pytest.raises(ValueError, match=r"call run\(\) first"):
        p.boundedness_report()


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
    assert b"\r" not in path.read_bytes()  # LF line ends, as the table files
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "eps", "tau", "residual_fcd", "residual_scd",
                       "sens_norm", "state_gap"]
    assert len(rows) == 1 + len(probe.records)
    assert float(rows[1][1]) == probe.records[0].eps


def _cpus(monkeypatch, count):
    """Let the probe see ``count`` CPUs. On one, its entries run in this
    process, where the tests' monkeypatched counters see them; on more,
    they run on forked workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _cases(mesh, key):
    """(dA, dA2, coercive) for the four probe kinds: coercive or not, dA2 given or not."""
    rng = np.random.Generator(np.random.Philox(key=key))
    dA, dA2 = rng.uniform(-1.0, 1.0, size=(2, mesh.node_count))
    return [(dA, second, coercive) for coercive in (False, True) for second in (None, dA2)]


def test_fixed_operands_assembled_once(monkeypatch):
    # A_bar, dA and dA2 are fixed per probe: each has its stiffness and
    # weighted mass built once, and no entry assembles a tensor L(V) or a
    # K_tau(A_bar) of its own
    _cpus(monkeypatch, 1)
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


def test_three_solves_per_entry(monkeypatch):
    # the state V and its derivatives dV, d2V take one solve each, for every
    # probe kind; the coercive probe adds its base solve
    _cpus(monkeypatch, 1)
    prob = ManufacturedProblem.build(6)
    solves = []
    solve = RegularizedForwardOperator.solve

    def counted(self, rhs):
        solves.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(RegularizedForwardOperator, "solve", counted)
    sched = default_schedule(n_entries=4)
    for dA, dA2, coercive in _cases(prob.mesh, 38):
        solves.clear()
        ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA, dA2=dA2,
                        schedule=sched, coercive=coercive).run()
        assert len(solves) == 3 * len(sched) + int(coercive)


def _oracle_records(mesh, A_bar, P, dA, dA2, schedule, coercive):
    """Probe records with every right-hand side built through the tensor L(V)."""
    dA2 = dA if dA2 is None else dA2
    W = assembly.shared_s_matrix(mesh)
    K_bar = assembly.assemble_stiffness(mesh, A_bar)
    if coercive:
        K_bar = K_bar + W
        u_bar = RegularizedForwardOperator(mesh, A_bar, eps=1.0).solve(P)
    else:
        u_bar = solve_neumann_mean_zero(mesh, K_bar, P)

    def norm(v):
        return np.sqrt(v @ (W @ v))

    records = []
    for e in schedule:
        op = RegularizedForwardOperator(mesh, A_bar, eps=e.eps + float(coercive), tau=e.tau)
        V = op.solve(P)
        dV1 = op.solve(-assembly.apply_L(mesh, V, dA, e.tau))
        dV_tilde = op.solve(-assembly.apply_L(mesh, V, dA2, e.tau))
        d2V = op.solve(-2.0 * (assembly.assemble_L(mesh, dV1, e.tau) @ dA)) + dV_tilde
        fcd = riesz_dual_norm(mesh, K_bar @ dV1 + assembly.apply_L(mesh, u_bar, dA))
        scd = riesz_dual_norm(mesh, K_bar @ d2V + 2.0 * assembly.apply_L(mesh, dV1, dA)
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
    _cpus(monkeypatch, 1)
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
    perturb_functional(prob.P, prob.mesh, 0, 1e-3)
    assert len(factorized) == 1


def test_run_matches_entries_one_at_a_time(monkeypatch):
    # one forked worker per entry, more than there are cores; each record
    # still equals, field for field, the one its entry gives in this process
    prob = ManufacturedProblem.build(12)
    sched = default_schedule()
    _cpus(monkeypatch, len(sched))
    for dA, dA2, coercive in _cases(prob.mesh, 36):
        p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA,
                            dA2=dA2, schedule=sched, coercive=coercive)
        records = p.run()
        assert records == [p._record(n, entry) for n, entry in enumerate(sched)]


def test_singular_entry_fails_the_run_and_leaves_no_records(monkeypatch):
    # on a forked worker per entry, the singular entry's error reaches this process
    prob = ManufacturedProblem.build(6)
    with pytest.raises(SingularSystemError) as direct:
        RegularizedForwardOperator(prob.mesh, prob.A_true, eps=0.0, tau=0.0)
    singular = ScheduleEntry(eps=0.0, tau=0.0, nu=0.0, delta=0.0, kappa=0.0)
    sched = default_schedule(n_entries=3) + (singular,) + default_schedule(n_entries=2)
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P,
                        dA=np.ones(prob.mesh.node_count), schedule=sched)
    _cpus(monkeypatch, len(sched))
    threads = threading.active_count()
    with pytest.raises(SingularSystemError) as raised:
        p.run()
    assert type(raised.value) is SingularSystemError
    assert str(raised.value) == str(direct.value)
    assert raised.value.condition_estimate == direct.value.condition_estimate
    assert p.records == []
    with pytest.raises(ValueError, match=r"call run\(\) first"):
        p.boundedness_report()
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


def test_run_leaves_no_worker_thread(monkeypatch):
    prob = ManufacturedProblem.build(4)
    dA = np.ones(prob.mesh.node_count)
    with pytest.raises(ValueError, match="schedule must be nonempty"):
        ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA, schedule=())
    threads = threading.active_count()
    sched = default_schedule(n_entries=3)
    _cpus(monkeypatch, len(sched))
    p = ContingentProbe(mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA, schedule=sched)
    assert len(p.run()) == len(sched)
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


def test_worker_count_without_affinity(monkeypatch):
    # where os.sched_getaffinity is missing, os.cpu_count() bounds the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _worker_count(8) == 3
    assert _worker_count(2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8) == 1
    # where processes cannot be forked, one worker: the entries run in-process
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _worker_count(8) == 1

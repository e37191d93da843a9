"""The benchmark workloads: what one pass solves and how its outputs are checked.

A pass is a fixed list of solves. Pass ``k`` of a run with seed ``s`` draws
its inputs from ``s`` and ``k`` only, so the same seed gives the same inputs.
A reconstruction's input is its data noise, keyed by ``NoiseSpec(seed)``;
a probe's input is its direction ``dA``. Pass 0 uses the run seed itself as
the noise seed.

Every solve is checked before its numbers count. A solve that fails a check
is reported as failed; it is never dropped or re-drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Upper error bounds of the kind test_criterion_07 uses: three times the
# table anchors. The anchors are rel-L2(a) at n=30 without noise (OLS
# 1.13e-2, MOLS 9.54e-3) and rel-L2(u) at delta=1e-1 (9.01e-2). Errors
# fall with n and grow with delta, so for n >= 30 and delta <= 1e-2 the
# bounds hold for every cell.
REL_L2_A_MAX = {"ols": 3.0 * 1.13e-2, "mols": 3.0 * 9.54e-3}
REL_L2_U_MAX = 3.0 * 9.01e-2
# limit-rate window of tests/test_setvalued.py
RATE_MIN, RATE_MAX = 0.8, 1.2

PASS_SEED_STRIDE = 10007


def pass_seed(seed: int, k: int) -> int:
    return seed + PASS_SEED_STRIDE * k


@dataclass(frozen=True)
class Check:
    ok: bool
    reason: str = ""
    values: dict = field(default_factory=dict)  # figures the solve produced


def _failed(reason: str, **values) -> Check:
    return Check(False, reason, values)


class Reconstructions:
    """Projected-Newton table cells of the manufactured problem."""

    def __init__(self, ellreg, objective: str, sizes: tuple, deltas: tuple):
        self.experiments = ellreg.experiments
        self.objective = objective
        self.mesh_sizes = sizes  # every pass solves one cell per mesh size
        self.deltas = deltas  # pass k uses deltas[k % len(deltas)]

    def setup(self):
        for n in self.mesh_sizes:
            self.experiments.ManufacturedProblem.build(n)

    def inputs(self, seed: int, k: int) -> list:
        delta = self.deltas[k % len(self.deltas)]
        return [(n, delta, pass_seed(seed, k)) for n in self.mesh_sizes]

    def solve(self, item):
        n, delta, s = item
        cfg = self.experiments.ExperimentConfig(objective=self.objective, seed=s)
        result, errs, _ = self.experiments.run_cell(cfg, n, delta)
        return cfg, result, errs

    def check(self, item, out) -> Check:
        cfg, result, errs = out
        # read termination and errors; ReconstructionResult.success is True
        # for runs that stopped on max_iters or a failed line search
        if errs is None:
            return _failed(f"no result: {result.termination}: {result.failure_reason}")
        values = {"rel_l2_a": errs["rel_l2_a"], "rel_l2_u": errs["rel_l2_u"],
                  "termination": result.termination}
        if result.termination != "grad_tol":
            return _failed(f"stopped on {result.termination}", **values)
        A = result.A
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(result.V))):
            return _failed("non-finite coefficient or state", **values)
        if A.min() < cfg.c1 or A.max() > cfg.c2:
            return _failed("coefficient leaves the box [c1, c2]", **values)
        if not errs["rel_l2_a"] <= REL_L2_A_MAX[self.objective]:
            return _failed(f"rel-L2(a) {errs['rel_l2_a']:.3e} above bound", **values)
        if not errs["rel_l2_u"] <= REL_L2_U_MAX:
            return _failed(f"rel-L2(u) {errs['rel_l2_u']:.3e} above bound", **values)
        return Check(True, values=values)

    @staticmethod
    def fingerprint(out):
        _, result, _ = out
        return None if result.A is None else (result.A.tobytes(), result.V.tobytes())

    @staticmethod
    def optimizer_counts(out) -> dict:
        """Newton steps and accepted steps read from the entry logs.

        Every log row is one iterate. A step direction is computed at every
        row except a final row that met grad_tol; a step is accepted at every
        row except the last, unless the entry ran out of iterations.
        """
        _, result, _ = out
        steps = accepted = 0
        for i, log in enumerate(result.entry_logs):
            last = i == len(result.entry_logs) - 1
            termination = result.termination if last else "grad_tol"
            rows = len(log)
            steps += rows - (termination == "grad_tol")
            accepted += rows - (termination != "max_iters")
        return {"newton_steps": steps, "accepted_steps": accepted}


class LimitProbe:
    """ContingentProbe over the default 8-entry schedule at the true coefficient."""

    def __init__(self, ellreg, n: int):
        self.ellreg = ellreg
        self.n = n
        self.problem = None

    def setup(self):
        self.problem = self.ellreg.experiments.ManufacturedProblem.build(self.n)

    def inputs(self, seed: int, k: int) -> list:
        rng = np.random.Generator(np.random.Philox(key=[seed, k]))
        return [rng.uniform(-1.0, 1.0, size=self.problem.mesh.node_count)]

    def solve(self, dA):
        prob = self.problem
        probe = self.ellreg.setvalued.ContingentProbe(
            mesh=prob.mesh, A_bar=prob.A_true, P=prob.P, dA=dA,
            schedule=self.ellreg.forward.default_schedule())
        probe.run()
        return probe

    def check(self, dA, probe) -> Check:
        recs = probe.records
        eps = np.array([r.eps for r in recs])
        fcd = np.array([r.residual_fcd for r in recs])
        scd = np.array([r.residual_scd for r in recs])
        values = {"fcd_residual": float(fcd[-1])}
        if len(recs) != 8 or not (np.all(np.isfinite(fcd)) and np.all(np.isfinite(scd))):
            return _failed("missing or non-finite probe records", **values)
        fcd_rate = np.polyfit(np.log(eps), np.log(fcd), 1)[0]
        scd_rate = np.polyfit(np.log(eps), np.log(scd), 1)[0]
        if not (RATE_MIN <= fcd_rate <= RATE_MAX and fcd[-1] < fcd[0]):
            return _failed(f"FCD residual rate {fcd_rate:.3f} in eps", **values)
        if not RATE_MIN <= scd_rate <= RATE_MAX:
            return _failed(f"SCD residual rate {scd_rate:.3f} in eps", **values)
        rep = probe.boundedness_report()
        if not np.isfinite(rep["sup_sens_norm"]) or rep["flagged"]:
            return _failed("sensitivity norms not bounded", **values)
        if not RATE_MIN <= rep["state_gap_rate"] <= RATE_MAX:
            return _failed(f"state-gap rate {rep['state_gap_rate']:.3f} in eps", **values)
        return Check(True, values=values)

    @staticmethod
    def fingerprint(probe):
        return np.array([[r.residual_fcd, r.residual_scd, r.sens_norm, r.state_gap]
                         for r in probe.records]).tobytes()

    @staticmethod
    def optimizer_counts(probe) -> dict:
        return {"newton_steps": 0, "accepted_steps": 0}


WORKLOADS = {
    "ols_newton": lambda ellreg: Reconstructions(ellreg, "ols", (30, 35, 40), (1e-2, 1e-3)),
    "mols_fine": lambda ellreg: Reconstructions(ellreg, "mols", (90,), (1e-3,)),
    "limit_probe": lambda ellreg: LimitProbe(ellreg, 160),
}

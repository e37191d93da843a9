"""Box-constrained minimization of the regularized OLS/MOLS objectives
along a regularization schedule.

Projected gradient with Armijo backtracking is the robust default;
projected Newton uses the exact Hessian action through conjugate gradients
with negative-curvature detection (OLS is not convex, so indefiniteness is
handled by a diagonal shift rather than pretended away).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import assembly
from . import noise as noise_mod
from . import objectives as obj
from .forward import (
    RegularizationSchedule,
    RegularizedForwardOperator,
    SingularSystemError,
)
from .mesh import Mesh


@dataclass
class SolveOptions:
    objective: str = "ols"  # "ols" or "mols"
    method: str = "projected_newton"  # or "projected_gradient"
    max_iters: int = 500
    grad_tol: float = 1e-8  # relative to the initial projected-gradient norm
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    warm_start: bool = True
    cg_max_iters: int = 200
    cg_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.armijo_c1 < 1.0):
            raise ValueError("Armijo c1 must lie in (0, 1)")
        if self.grad_tol <= 0 or self.max_iters <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class EntryLogRow:
    iteration: int
    objective: float
    pg_norm: float
    step: float


@dataclass
class ReconstructionResult:
    success: bool
    A: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    termination: str = ""
    failure_reason: str = ""
    condition_estimate: Optional[float] = None
    entry_logs: list = field(default_factory=list)  # one list of EntryLogRow per entry
    entry_params: list = field(default_factory=list)  # the ScheduleEntry used
    entry_solutions: list = field(default_factory=list)  # A* after each entry
    iterations: int = 0


@dataclass
class IdentificationProblem:
    """Data defining one reconstruction run (mesh, loads, data, constraints)."""

    mesh: Mesh
    P_exact: np.ndarray
    Z_exact: np.ndarray
    reg: obj.Regularizer
    c1: float = 0.1
    c2: float = 10.0
    noise: noise_mod.NoiseSpec = noise_mod.NoiseSpec(seed=0)
    ell_mode: str = "zero"  # or "data-steered"
    coercive_shift: float = 0.0

    def entry_data(self, entry):
        """Perturbed data vector and load for one schedule entry."""
        Z_d = noise_mod.perturb_data(self.Z_exact, self.noise, delta=entry.delta)
        P = noise_mod.perturb_functional(self.P_exact, self.mesh, self.noise, nu=entry.nu)
        if self.ell_mode == "data-steered":
            P = P + entry.eps * (assembly.shared_s_matrix(self.mesh) @ Z_d)
        return Z_d, P

    def operator(self, A, entry) -> RegularizedForwardOperator:
        return RegularizedForwardOperator(self.mesh, A, eps=entry.eps, tau=entry.tau,
                                          coercive_shift=self.coercive_shift)


def project_box(A: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Componentwise clamp onto [c1, c2]; idempotent and nonexpansive."""
    if c1 >= c2:
        raise ValueError("need c1 < c2")
    return np.clip(np.asarray(A, dtype=float), c1, c2)


class _EntryObjective:
    """Value/gradient/Hessian-action of one schedule entry's composite objective.

    Each evaluated state assembles its tensors once: L(V) for MOLS, L(V) and
    L(w) for OLS (w the adjoint state). MOLS also needs L(Z), which is fixed
    for the entry. Every Hessian action reuses them.
    """

    def __init__(self, problem: IdentificationProblem, entry, objective: str):
        self.problem = problem
        self.entry = entry
        self.objective = objective
        self.Z, self.P = problem.entry_data(entry)
        if objective == "mols":
            self.LZ = assembly.assemble_L(problem.mesh, self.Z, entry.tau)

    def evaluate(self, A, need_hessian=False):
        pr = self.problem
        op = pr.operator(A, self.entry)
        V = op.solve_state(self.P)
        LV = op.L(V)
        kappa = self.entry.kappa
        reg_value, reg_grad, reg_hess = obj.regularizer_eval(pr.reg, pr.mesh, A)
        hess = None
        if self.objective == "ols":
            misfit = obj.ols_value(op, V, self.Z)
            w_adj = op.solve_adjoint(V, self.Z)
            grad = obj.ols_gradient_adjoint(op, LV, w_adj) + kappa * reg_grad
            if need_hessian:
                Lw = op.L(w_adj)

                def hess(d):
                    return obj.ols_hessian_action(op, LV, Lw, d) + kappa * reg_hess(d)
        else:
            misfit = obj.mols_value(op, V, self.Z)
            grad = obj.mols_gradient(LV, self.LZ, V, self.Z) + kappa * reg_grad
            if need_hessian:
                def hess(d):
                    return obj.mols_hessian_action(op, LV, d) + kappa * reg_hess(d)
        value = misfit + kappa * reg_value
        return value, grad, hess, V, op


def _cg(hess, g, tol, max_iters):
    """CG on H p = -g with negative-curvature handling via a diagonal shift."""
    shift = 0.0
    for _attempt in range(3):
        p = np.zeros_like(g)
        r = -g.copy()
        d = r.copy()
        rr = r @ r
        rr0 = rr
        neg_curv = None
        for _ in range(max_iters):
            Hd = hess(d) + shift * d
            dHd = d @ Hd
            if dHd <= 1e-14 * (d @ d):
                neg_curv = abs(dHd) / max(d @ d, 1e-300)
                break
            alpha = rr / dHd
            p = p + alpha * d
            r = r - alpha * Hd
            rr_new = r @ r
            if rr_new <= tol * tol * rr0:
                break
            d = r + (rr_new / rr) * d
            rr = rr_new
        if neg_curv is None:
            return p
        shift = max(2.0 * shift, neg_curv + 1e-8)
    return p


def _minimize_entry(fun: _EntryObjective, A0, opts: SolveOptions, c1, c2):
    A = project_box(A0, c1, c2)
    log = []
    use_newton = opts.method == "projected_newton"
    value, grad, hess, V, op = fun.evaluate(A, need_hessian=use_newton)
    pg0 = np.linalg.norm(project_box(A - grad, c1, c2) - A)
    step = 1.0
    termination = "max_iters"
    for it in range(opts.max_iters):
        pg = np.linalg.norm(project_box(A - grad, c1, c2) - A)
        log.append(EntryLogRow(it, value, pg, step))
        if pg <= opts.grad_tol * max(pg0, 1e-300):
            termination = "grad_tol"
            break
        if use_newton and hess is not None:
            p = _cg(hess, grad, opts.cg_tol, opts.cg_max_iters)
            if p @ grad >= 0:  # not a descent direction; fall back
                p = -grad
        else:
            p = -grad
        # Armijo backtracking along the projection arc
        t = step if not use_newton else 1.0
        accepted = False
        for _ in range(60):
            A_try = project_box(A + t * p, c1, c2)
            dA = A_try - A
            if np.linalg.norm(dA) == 0.0:
                break
            try:
                v_try, g_try, h_try, V_try, op_try = fun.evaluate(A_try, need_hessian=use_newton)
            except SingularSystemError:
                t *= opts.backtrack
                continue
            if v_try <= value + opts.armijo_c1 * (grad @ dA):
                accepted = True
                break
            t *= opts.backtrack
        if not accepted:
            termination = "linesearch_failure"
            break
        # mild step growth keeps plain gradient steps from collapsing
        step = min(t / opts.backtrack, 1e3) if not use_newton else 1.0
        A, value, grad, hess, V, op = A_try, v_try, g_try, h_try, V_try, op_try
    else:
        it = opts.max_iters - 1
    return A, V, op, log, termination, it + 1


def minimize(problem: IdentificationProblem, schedule: RegularizationSchedule,
             opts: SolveOptions, A0: np.ndarray) -> ReconstructionResult:
    """Minimize the composite objective at every schedule entry, warm-started."""
    if len(schedule) == 0:
        raise ValueError("schedule must be nonempty")
    result = ReconstructionResult(success=True)
    A = project_box(np.asarray(A0, dtype=float), problem.c1, problem.c2)
    V = None
    for entry in schedule:
        fun = _EntryObjective(problem, entry, opts.objective)
        try:
            A_new, V, op, log, termination, iters = _minimize_entry(
                fun, A if opts.warm_start else np.asarray(A0, dtype=float),
                opts, problem.c1, problem.c2)
        except SingularSystemError as err:
            return ReconstructionResult(
                success=False,
                failure_reason=str(err),
                condition_estimate=err.condition_estimate,
                termination="singular_system",
                entry_params=list(result.entry_params),
                entry_logs=list(result.entry_logs),
            )
        A = A_new
        result.entry_logs.append(log)
        result.entry_params.append(entry)
        result.entry_solutions.append(A.copy())
        result.termination = termination
        result.iterations += iters
    result.A = A
    result.V = V
    return result


def ols_optimality_check(problem: IdentificationProblem, result: ReconstructionResult,
                         entry, n_random: int = 32, seed: int = 0) -> float:
    """Sampled residual of the OLS first-order optimality system at result.A."""
    Z, P = problem.entry_data(entry)
    op = problem.operator(result.A, entry)
    V = op.solve_state(P)
    p_adj = op.solve_adjoint(V, Z)
    return obj.ols_optimality_residual(op, V, p_adj, result.A, entry.kappa,
                                       problem.reg, problem.c1, problem.c2,
                                       n_random=n_random, seed=seed)

"""Box-constrained minimization of the regularized OLS/MOLS objectives
along a regularization schedule.

Projected Newton: the step direction solves the Newton system with the
exact Hessian action through conjugate gradients with negative-curvature
detection (OLS is not convex, so indefiniteness is handled by a diagonal
shift rather than pretended away), and Armijo backtracking runs along the
projection arc from the full step. MOLS CG is Jacobi-preconditioned with
``objectives.mols_preconditioner``.
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

ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the line search
BACKTRACK = 0.5  # step shrink factor per rejected trial
CG_MAX_ITERS = 200
CG_TOL = 1e-8  # relative residual of the Newton-CG solve
GRAD_TOL = 1e-8  # stopping test: projected gradient relative to its initial norm
MAX_ITERS = 500  # Newton steps per schedule entry


@dataclass
class SolveOptions:
    objective: str = "ols"  # "ols" or "mols"

    def __post_init__(self):
        if self.objective not in ("ols", "mols"):
            raise ValueError(f"objective must be 'ols' or 'mols', got {self.objective!r}")


@dataclass
class EntryLogRow:
    """One iterate of an entry and the step taken from it (none from the last)."""

    iteration: int
    objective: float
    pg_norm: float
    cg_iters: int = 0  # Hessian actions spent on the step direction
    trials: int = 0  # line-search trials, including those skipped as repeats


@dataclass
class ReconstructionResult:
    success: bool
    A: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    termination: str = ""
    failure_reason: str = ""
    condition_estimate: Optional[float] = None  # of the final (or the failing) operator
    near_singular: bool = False  # the final operator's near-singularity flag
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
    c1: float = 0.1
    c2: float = 10.0
    noise: noise_mod.NoiseSpec = noise_mod.NoiseSpec(seed=0)

    def entry_data(self, entry):
        """Perturbed data vector and data-steered load P + eps*W*z_delta for one entry."""
        Z_d = noise_mod.perturb_data(self.Z_exact, self.noise, entry.delta)
        P = noise_mod.perturb_functional(self.P_exact, self.mesh, self.noise, entry.nu)
        return Z_d, P + entry.eps * (assembly.shared_s_matrix(self.mesh) @ Z_d)

    def operator(self, A, entry) -> RegularizedForwardOperator:
        return RegularizedForwardOperator(self.mesh, A, eps=entry.eps, tau=entry.tau)


def project_box(A: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Componentwise clamp onto [c1, c2]; idempotent and nonexpansive."""
    if c1 >= c2:
        raise ValueError("need c1 < c2")
    return np.clip(np.asarray(A, dtype=float), c1, c2)


class _EntryObjective:
    """Value, gradient and Hessian action of one schedule entry's composite objective.

    ``evaluate`` computes what a line-search trial needs: the operator, the
    state and the value. ``derivatives`` adds the rest for an accepted
    state, assembling its tensors once: L(V) for MOLS, L(V) and L(w) for OLS
    (w the adjoint state). MOLS also needs L(Z), which is fixed for the
    entry. Every Hessian action reuses them. OLS builds L(w) on the first
    Hessian action, so a state that is never asked for one (a final
    iterate) never builds it.
    """

    def __init__(self, problem: IdentificationProblem, entry, objective: str):
        self.problem = problem
        self.entry = entry
        self.objective = objective
        self.Z, self.P = problem.entry_data(entry)
        if objective == "mols":
            self.LZ = assembly.assemble_L(problem.mesh, self.Z, entry.tau)

    def evaluate(self, A):
        """Return (value, state) at A; ``state`` is what ``derivatives`` reads."""
        pr = self.problem
        op = pr.operator(A, self.entry)
        V = op.solve_state(self.P)
        misfit_value = obj.ols_value if self.objective == "ols" else obj.mols_value
        reg = obj.regularizer_eval(pr.mesh, A)
        value = misfit_value(op, V, self.Z) + self.entry.kappa * reg[0]
        return value, (A, V, op, reg)

    def derivatives(self, state):
        """Return (gradient, Hessian action, CG preconditioner) at an evaluated state.

        The preconditioner is a positive diagonal for MOLS and None for OLS.
        """
        A, V, op, (_, reg_grad, reg_hess) = state
        pr = self.problem
        LV = op.L(V)
        kappa = self.entry.kappa
        if self.objective == "ols":
            w_adj = op.solve_adjoint(V, self.Z)
            grad = obj.ols_gradient_adjoint(LV, w_adj) + kappa * reg_grad
            Lw = None

            def hess(d):
                nonlocal Lw
                if Lw is None:
                    Lw = op.L(w_adj)
                return obj.ols_hessian_action(op, LV, Lw, d) + kappa * reg_hess(d)

            # OLS CG runs unpreconditioned: the MOLS diagonal slows it down,
            # and kappa*diag(W) alone does not speed it up
            return grad, hess, None
        grad = obj.mols_gradient(LV, self.LZ, V, self.Z) + kappa * reg_grad

        def hess(d):
            return obj.mols_hessian_action(op, LV, d) + kappa * reg_hess(d)

        D = obj.mols_preconditioner(pr.mesh, A, V, kappa)
        # at kappa = 0 a node where V is locally constant gets a zero entry
        return grad, hess, D if np.all(D > 0) else None


def _cg(hess, g, tol, max_iters, diag=None):
    """Jacobi-preconditioned CG on H p = -g, with negative curvature handled by a shift.

    ``diag`` is a positive diagonal approximating H (None: plain CG). The
    stopping test reads the unpreconditioned residual, |r| <= tol*|g|, so
    the preconditioner changes the work, not the accuracy. When a direction
    shows nonpositive curvature, CG restarts on H + shift*I. Returns the
    direction and the number of Hessian actions spent on it.
    """
    shift = 0.0
    actions = 0
    for _attempt in range(3):
        p = np.zeros_like(g)
        r = -g.copy()
        z = r if diag is None else r / diag
        d = z.copy()
        rz = r @ z
        rr0 = r @ r
        neg_curv = None
        for _ in range(max_iters):
            Hd = hess(d) + shift * d
            actions += 1
            dHd = d @ Hd
            if dHd <= 1e-14 * (d @ d):
                neg_curv = abs(dHd) / max(d @ d, 1e-300)
                break
            alpha = rz / dHd
            p = p + alpha * d
            r = r - alpha * Hd
            if r @ r <= tol * tol * rr0:
                break
            z = r if diag is None else r / diag
            rz_new = r @ z
            d = z + (rz_new / rz) * d
            rz = rz_new
        if neg_curv is None:
            return p, actions
        shift = max(2.0 * shift, neg_curv + 1e-8)
    return p, actions


def _minimize_entry(fun: _EntryObjective, A0, c1, c2):
    A = project_box(A0, c1, c2)
    log = []
    value, state = fun.evaluate(A)
    grad, hess, diag = fun.derivatives(state)
    pg0 = np.linalg.norm(project_box(A - grad, c1, c2) - A)
    termination = "max_iters"
    for it in range(MAX_ITERS):
        pg = np.linalg.norm(project_box(A - grad, c1, c2) - A)
        row = EntryLogRow(it, value, pg)
        log.append(row)
        if pg <= GRAD_TOL * max(pg0, 1e-300):
            termination = "grad_tol"
            break
        p, row.cg_iters = _cg(hess, grad, CG_TOL, CG_MAX_ITERS, diag)
        if p @ grad >= 0:  # not a descent direction; fall back
            p = -grad
        # Armijo backtracking along the projection arc
        t = 1.0
        accepted = False
        rejected = None  # the last rejected trial point
        for _ in range(60):
            A_try = project_box(A + t * p, c1, c2)
            dA = A_try - A
            if np.linalg.norm(dA) == 0.0:
                break
            row.trials += 1
            # the projection maps several t to one point; its evaluation is
            # deterministic, so a point once rejected is rejected again
            if rejected is not None and np.array_equal(A_try, rejected):
                t *= BACKTRACK
                continue
            try:
                v_try, s_try = fun.evaluate(A_try)
            except SingularSystemError:
                v_try = np.inf
            if v_try <= value + ARMIJO_C1 * (grad @ dA):
                accepted = True
                break
            rejected = A_try
            t *= BACKTRACK
        if not accepted:
            termination = "linesearch_failure"
            break
        A, value, state = A_try, v_try, s_try
        grad, hess, diag = fun.derivatives(state)
    else:
        it = MAX_ITERS - 1
    _, V, op, _ = state
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
                fun, A, problem.c1, problem.c2)
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
    result.condition_estimate = op.condition_estimate
    result.near_singular = op.near_singular
    return result


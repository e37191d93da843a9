"""Box-constrained minimization of the regularized OLS/MOLS objectives
along a regularization schedule.

Projected Newton: the step direction solves the Newton system with the
exact Hessian action through conjugate gradients with negative-curvature
detection (OLS is not convex, so indefiniteness is handled by a diagonal
shift rather than pretended away), and Armijo backtracking runs along the
projection arc from the full step. CG is Jacobi-preconditioned: MOLS with
``objectives.mols_preconditioner``, OLS with the unit diagonal.

Newton-CG is inexact (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996):
step k solves H p = -g only to |r| <= eta_k*|g|, with the forcing term
eta_k = max(CG_TOL, min(ETA_MAX, sqrt(pg_k / pg_scale))), where pg_k is the
projected gradient norm and pg_scale the one the stopping test divides by.
Far from the minimizer the Newton model is poor and a loose solve suffices;
near it eta_k falls towards CG_TOL. The theory holds for any smooth
objective, so OLS and MOLS share the one cap ``ETA_MAX``.

A line search that rejects every trial ends the entry on "stagnation" when
pg_k <= sqrt(GRAD_TOL) * pg_scale, the accuracy that noisy values allow, and
the full step's model decrease -g.p is no larger than the largest rise of f
over the trials, which measures the noise (compare More & Wild, SIAM J. Sci.
Comput. 33, 2011); otherwise on "linesearch_failure".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import assembly
from . import noise as noise_mod
from . import objectives as obj
from .forward import RegularizedForwardOperator, SingularSystemError
from .mesh import Mesh

ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the line search
BACKTRACK = 0.5  # step shrink factor per rejected trial
CG_MAX_ITERS = 200
CG_TOL = 1e-8  # smallest relative residual of the Newton-CG solve
ETA_MAX = 1e-2  # cap of the forcing term, far from the minimizer
GRAD_TOL = 1e-8  # stopping test: projected gradient relative to its initial norm
MAX_ITERS = 500  # Newton steps per schedule entry


@dataclass
class EntryLogRow:
    """One iterate of an entry and the step taken from it (none from the last)."""

    objective: float
    pg_norm: float
    cg_iters: int = 0  # Hessian actions spent on the step direction
    trials: int = 0  # line-search trials, including those skipped as repeats


@dataclass(frozen=True, eq=False)
class EntryResult:
    """One schedule entry's minimization: its final iterate ``A`` (the next entry's
    warm start), its ``log``, a tuple of ``EntryLogRow``, and how it stopped,
    ``termination``: "grad_tol", "stagnation", "max_iters" or "linesearch_failure"."""

    A: np.ndarray
    log: tuple
    termination: str


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Outcome of ``minimize``: an ``EntryResult`` per completed entry and the final state.

    ``A`` and ``termination`` are the last entry's. After a singular system, ``error``
    is the caught ``SingularSystemError``, ``entries`` keeps the entries completed
    before it, ``A``, ``V`` and ``operator`` are None and ``termination`` reads
    "singular_system"; ``success`` is False only then.
    """

    entries: tuple
    V: Optional[np.ndarray] = None
    operator: Optional[RegularizedForwardOperator] = None
    error: Optional[SingularSystemError] = None

    @property
    def A(self) -> Optional[np.ndarray]:
        return None if self.error is not None else self.entries[-1].A

    @property
    def termination(self) -> str:
        return "singular_system" if self.error is not None else self.entries[-1].termination

    @property
    def success(self) -> bool:
        return self.error is None

    @property
    def failure_reason(self) -> str:
        return "" if self.error is None else str(self.error)

    @property
    def condition_estimate(self) -> float:
        """Of the failing operator, else of the final one."""
        return (self.operator if self.error is None else self.error).condition_estimate

    @property
    def iterations(self) -> int:
        return sum(len(e.log) for e in self.entries)

    @property
    def entry_logs(self) -> list:  # for readers that predate ``entries``
        return [e.log for e in self.entries]


@dataclass(eq=False)
class IdentificationProblem:
    """Data defining one reconstruction run (mesh, loads, data, constraints)."""

    mesh: Mesh
    P_exact: np.ndarray
    Z_exact: np.ndarray
    c1: float = 0.1
    c2: float = 10.0
    seed: int = 0  # of the data and functional noise

    def entry_data(self, entry):
        """Perturbed data vector and data-steered load P + eps*W*z_delta for one entry."""
        Z_d = noise_mod.perturb_data(self.Z_exact, self.seed, entry.delta)
        P = noise_mod.perturb_functional(self.P_exact, self.mesh, self.seed, entry.nu)
        return Z_d, P + entry.eps * (assembly.shared_s_matrix(self.mesh) @ Z_d)

    def operator(self, A, entry) -> RegularizedForwardOperator:
        return RegularizedForwardOperator(self.mesh, A, eps=entry.eps, tau=entry.tau)


def project_box(A: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Componentwise clamp onto [c1, c2]; idempotent and nonexpansive."""
    if not c1 < c2:
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
        V = op.solve(self.P)
        misfit_value = obj.ols_value if self.objective == "ols" else obj.mols_value
        reg = obj.regularizer_eval(pr.mesh, A)
        value = misfit_value(op, V, self.Z) + self.entry.kappa * reg[0]
        return value, (A, V, op, reg)

    def derivatives(self, state):
        """Return (gradient, Hessian action, CG preconditioner) at an evaluated state.

        The preconditioner is a positive diagonal: the Jacobi diagonal for
        MOLS, the unit diagonal for OLS.
        """
        A, V, op, (_, reg_grad, reg_hess) = state
        pr = self.problem
        LV = op.L(V)
        kappa = self.entry.kappa
        if self.objective == "ols":
            w_adj = obj.ols_adjoint_state(op, V, self.Z)
            grad = LV.T @ w_adj + kappa * reg_grad
            Lw = None

            def hess(d):
                nonlocal Lw
                if Lw is None:
                    Lw = op.L(w_adj)
                return obj.ols_hessian_action(op, LV, Lw, d) + kappa * reg_hess(d)

            # OLS CG takes the unit diagonal: the MOLS diagonal slows it down,
            # and kappa*diag(W) alone does not speed it up
            return grad, hess, np.ones_like(grad)
        grad = obj.mols_gradient(LV, self.LZ, V, self.Z) + kappa * reg_grad

        def hess(d):
            return obj.mols_hessian_action(op, LV, d) + kappa * reg_hess(d)

        D = obj.mols_preconditioner(pr.mesh, A, V, kappa)
        # at kappa = 0 a node where V is locally constant gets a zero entry
        return grad, hess, D if np.all(D > 0) else np.ones_like(D)


def _cg(hess, g, diag, tol):
    """Jacobi-preconditioned CG on H p = -g, with negative curvature handled by a shift.

    ``diag`` is a positive diagonal approximating H; the unit diagonal gives
    plain CG bit for bit, since r / 1.0 == r. The stopping test reads the
    unpreconditioned residual, |r| <= tol*|g|, so the preconditioner
    changes the work, not the accuracy. At most CG_MAX_ITERS Hessian actions
    are spent per attempt. When a direction shows nonpositive curvature, CG
    restarts on H + shift*I. Returns the direction and the number of Hessian
    actions spent on it.
    """
    shift = 0.0
    actions = 0
    for _attempt in range(3):
        p = np.zeros_like(g)
        r = -g.copy()
        z = r / diag
        d = z.copy()
        rz = r @ z
        rr0 = r @ r
        neg_curv = None
        for _ in range(CG_MAX_ITERS):
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
            z = r / diag
            rz_new = r @ z
            d = z + (rz_new / rz) * d
            rz = rz_new
        if neg_curv is None:
            return p, actions
        # neg_curv is measured on H + shift*I, so d needs shift + neg_curv
        shift = max(2.0 * shift, shift + neg_curv + 1e-8)
    return p, actions


def _minimize_entry(fun: _EntryObjective, A0, c1, c2):
    A = project_box(A0, c1, c2)
    log = []
    value, state = fun.evaluate(A)
    grad, hess, diag = fun.derivatives(state)
    termination = "max_iters"
    for _ in range(MAX_ITERS):
        pg = np.linalg.norm(project_box(A - grad, c1, c2) - A)
        row = EntryLogRow(value, pg)
        log.append(row)
        pg_scale = max(log[0].pg_norm, 1e-300)
        if pg <= GRAD_TOL * pg_scale:
            termination = "grad_tol"
            break
        eta = max(CG_TOL, min(ETA_MAX, np.sqrt(pg / pg_scale)))
        p, row.cg_iters = _cg(hess, grad, diag, eta)
        if not p @ grad < 0:  # not a descent direction (or NaN); fall back
            p = -grad
        # Armijo backtracking along the projection arc
        t = 1.0
        accepted = False
        rejected = None  # the last rejected trial point
        rise = -np.inf  # the largest rise of f over the rejected trials, inf if one is singular
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
            rise = max(rise, v_try - value)
            t *= BACKTRACK
        if not accepted:
            at_noise_floor = -(p @ grad) <= rise < np.inf and pg <= np.sqrt(GRAD_TOL) * pg_scale
            termination = "stagnation" if at_noise_floor else "linesearch_failure"
            break
        A, value, state = A_try, v_try, s_try
        grad, hess, diag = fun.derivatives(state)
    return EntryResult(A, tuple(log), termination), state


def minimize(problem: IdentificationProblem, schedule: tuple, objective: str,
             A0: np.ndarray) -> ReconstructionResult:
    """Minimize the composite objective at every schedule entry, warm-started.

    ``schedule`` is a tuple of ``ScheduleEntry``; ``objective`` is "ols" or "mols".
    """
    if objective not in ("ols", "mols"):
        raise ValueError(f"objective must be 'ols' or 'mols', got {objective!r}")
    if len(schedule) == 0:
        raise ValueError("schedule must be nonempty")
    if np.isnan(np.asarray(A0, dtype=float)).any():
        raise ValueError("A0 has a NaN entry, which the box projection would keep")
    entries = []
    A = A0
    for entry in schedule:
        fun = _EntryObjective(problem, entry, objective)
        try:
            record, state = _minimize_entry(fun, A, problem.c1, problem.c2)
        except SingularSystemError as err:
            return ReconstructionResult(tuple(entries), error=err)
        entries.append(record)
        A = record.A
    _, V, operator, _ = state
    return ReconstructionResult(tuple(entries), V, operator)

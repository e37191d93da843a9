"""Coefficient identification in pure-Neumann elliptic problems by
elliptic regularization: P1 finite elements, OLS/MOLS objectives with
adjoint derivatives, limit probes for the set-valued solution map, and
the reconstruction experiments."""

from .assembly import (
    apply_L,
    apply_Lt,
    assemble_L,
    assemble_load,
    assemble_mass,
    assemble_perturbed_stiffness,
    assemble_s_matrix,
    assemble_stiffness,
    assemble_weighted_mass,
)
from .forward import (
    RegularizationSchedule,
    RegularizedForwardOperator,
    ScheduleEntry,
    SingularSystemError,
    default_schedule,
    mean_zero_projection,
    riesz_dual_norm,
    solve_neumann_mean_zero,
)
from .mesh import Mesh, build_unit_square, interpolate
from .noise import NoiseSpec, perturb_data, perturb_functional
from .objectives import (
    mols_gradient,
    mols_hessian_action,
    mols_value,
    ols_gradient_adjoint,
    ols_hessian_action,
    ols_value,
)
from .optimizer import (
    IdentificationProblem,
    ReconstructionResult,
    SolveOptions,
    minimize,
    project_box,
)
from .setvalued import ContingentProbe, ProbeRecord

__version__ = "0.1.0"

"""Exact verification of the Lie structure behind bosonic ladder operators.

The package rebuilds, from the commutator [a_i, a_j^dagger] = delta_ij alone,
the closed generator families of quadratic operators, their matrix
representations, the squeeze-parameter contraction that turns the
ten-generator family into rotations, boosts and translations, and the
numeric cross-checks (truncated number basis, Gaussian phase space) that
keep the symbolic layer honest.
"""

from types import ModuleType as _ModuleType

from .scalars import ExactScalar, HALF, I, ONE, SQRT2, ZERO
from .matrices import ExactMatrix, kron
from .opalg import (
    ExprSyntaxError,
    NormalMonomial,
    OperatorExpr,
    annihilation_op,
    commutator,
    creation_op,
    momentum,
    parse_expr,
    position,
)
from .catalog import (
    AS_PRINTED,
    CANONICAL,
    FAMILY_VARIANTS,
    GeneratorFamily,
    coupled_block_matrix,
    de_sitter_bracket_targets,
    family,
    o32_matrices,
    off_diagonal_block,
    poincare_bracket_targets,
    single_mode_block_matrix,
    sp2_bracket_targets,
    sp2_minkowski4,
    sp2_oscillator,
    sp2_pauli,
    sp4_matrices,
    translation_matrices,
    two_mode_oscillator,
)
from .liecore import (
    BasisFactorization,
    ClosureReport,
    CompareResult,
    NotInSpan,
    StructureConstants,
    bracket,
    compare,
    dependent_labels,
    expand_in_basis,
    factorize,
    jacobi_check,
    render_bracket_lines,
    render_combination,
    structure_constants,
)
from .contract import (
    CONTRACTION_POWERS,
    CONTRACTION_RELABEL,
    DivergentLimit,
    EpsMatrix,
    conjugate,
    contract_family,
    contract_o32,
    contract_via_inverse_squeeze,
    dominant_part,
    eps_term,
    limit,
    numeric_conjugate,
)
from .focknum import (
    FockRealization,
    protected_commutator_check,
    realize,
)
from .phspace import (
    FourMomentum,
    GaussianState,
    apply_sp2,
    boost_momentum,
    flow,
    flow_residuals,
    ground_state,
    mass_shell,
    o32_metric,
    o32_residual,
    rotate_momentum,
    rotation,
    squeeze,
    symplectic_form,
    symplectic_residual,
    translate,
    translation_generator,
    wigner_eval,
    wigner_grid,
)

__version__ = "0.1.0"

# Every public name imported above, and only those: no leading underscore,
# not a submodule.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

"""Signed probabilities, quadratic entropy, and entropy-conserving dynamics.

The package spans four settings sharing one structure: a normalized state,
the quadratic information I (squared norm) with entropy S = 1 - I, and
evolution by antisymmetric generators that conserve both.

* vectors: finite-dimensional signed probability vectors and their geometry
* maxent: entropy maximization under a linear observable constraint
* dynamics: norm-conserving rotations of finite probability vectors
* densities: line densities and the odd-kernel integral evolution
* wigner: phase-space distributions and the split-step solver
"""

from ._grid import RunRecord
from .densities import (
    BoundReport,
    DensityGrid,
    KernelSpec,
    PotentialSpec,
    amplitude_bound_check,
    build_kernel,
    density_run,
    evolve_density,
    evolve_density_timestepped,
    gaussian_density,
    omega_constant,
    omega_harmonic,
    omega_linear,
    omega_quartic,
    omega_tabulated,
    uniform_density,
)
from .dynamics import (
    GeneratorMatrix,
    cyclic_generator3,
    evolve,
    random_generator,
    trajectory,
)
from .errors import (
    DegenerateConstraintError,
    DimensionMismatchError,
    DomainError,
    GridError,
    InadmissibleStateError,
    LogentError,
    NormalizationError,
    NoSolutionError,
)
from .maxent import (
    EquilibriumSolution,
    ObservableConstraint,
    equilibrium,
    information_of_mean,
    max_mean,
    max_mean_nonnegative,
)
from .vectors import (
    FeasibilityRadii,
    SignedProbVector,
    StateClass,
    classify,
    distance,
    feasibility_radii,
    information,
    logical_entropy,
    negative_orthonormal_basis,
    pair_outcome_probability,
    scalar_product,
    shannon_entropy,
    solve_n2,
    solve_n3,
)
from .wigner import (
    WignerGrid,
    delta_localized_evolve,
    gaussian_pure_wigner,
    higher_moment,
    wigner_evolve,
    wigner_run,
)

__version__ = "0.1.0"

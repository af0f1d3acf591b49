"""Half-space Neumann kernels, dyadic-Haar machinery, Besov and Schatten
norms, and the commutator experiment harness."""

from .besov import BesovParams, besov_heat_norm, besov_neumann_norm
from .discretize import (
    OperatorMatrix,
    QuadratureGrid,
    Symbol,
    apply_semigroup,
    assemble_commutator,
    export_matrix,
    make_grid,
    read_matrix,
)
from .dyadic import (
    Cube,
    DyadicSystem,
    HaarFunction,
    SampledField,
    build_system,
    conditional_expectation,
    dyadic_energy_sum,
    gradient_oscillation_check,
    haar_basis,
    martingale_difference,
    median,
    separated_subcubes,
)
from .harness import (
    ExperimentConfig,
    Report,
    ReportRow,
    divergence_study,
    lower_bound_audit,
    ratio_study,
    symbol_family,
    upper_bound_audit,
    verify_suite,
)
from .kernels import (
    Ball,
    KernelParams,
    cz_bounds_check,
    heat_kernel_full,
    heat_kernel_neumann,
    riesz_constant,
    riesz_kernel,
    sign_witness,
)
from .spectra import (
    SingularSpectrum,
    mixed_norm,
    russo_bound,
    schatten_norm,
    singular_values,
    weak_schatten_norm,
)

__version__ = "0.1.0"

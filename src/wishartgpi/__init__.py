"""Wishart minor-product inequalities: exact moments, bounds, and Monte Carlo verdicts."""

from .errors import (
    CapExceeded,
    ConfigError,
    DegenerateEvent,
    DegenerateVariance,
    DivergentIntegral,
    DomainError,
    IndexOutOfRange,
    InfiniteMoment,
    NotPositiveDefinite,
    SingularPivot,
    UpperBoundUnavailable,
)
from .linalg import (
    BlockSpec,
    as_symmetric,
    block_cholesky,
    block_view,
    direct_sum,
    is_positive_definite,
    schur_complement,
    sqrt_pd,
    sym_eigenvalues,
)
from .special import (
    log_mvgamma,
    log_partition_gamma_lower,
    log_partition_gamma_upper,
    partitions_of,
    zonal_expansion_coefficients,
    zonal_polynomial,
)
from .wishart import (
    RngStream,
    WishartModel,
    laplace_transform,
    log_density,
    log_det_moment,
    log_laplace_transform,
    log_minor_moment,
    minor_moment,
    pair_moment,
    random_correlation,
    sample,
    sample_sphere,
)
from .montecarlo import (
    ExponentVector,
    Finiteness,
    JointEstimate,
    MCEstimate,
    StreamPlan,
    finiteness_classify,
    mc_mean,
    mc_probability,
    mc_product_moment,
)
from .bounds import (
    bound_integral_beta_1d,
    integral_quadrature_1d,
    integral_window,
    log_minor_bound_integral,
    lyapunov_operator_determinant,
    matrix_square_jacobian,
    minor_bound_integral,
)
from .checks import (
    BernsteinSpec,
    InequalityVerdict,
    RadialSpec,
    STATEMENTS,
    bernstein_pair_check,
    eigen_gpi_check,
    elliptical_Q,
    elliptical_gpi_check,
    gpi_sandwich,
    lt_order_gap,
    opposite_gpi_lower,
    opposite_gpi_upper,
    product_moment_conjecture_check,
    proved_status,
    radial_moment_ratio,
    split_model,
    tail_probability_conjecture_check,
    verdict_from,
)
from .harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    OUTPUT_DIR_ENV,
    ReportRow,
    SCHEMA_VERSION,
    parse_config,
    run,
    verify_suite,
    write_reports,
)

__version__ = "0.1.0"

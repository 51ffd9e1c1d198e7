"""geoseq: geometric-calculus sequence analysis.

Arithmetic for the multiplicative (geometric) calculus, the banded
Fibonacci difference transform, Orlicz functions with the Luxemburg
norm, windowed modular membership diagnostics with their paranorm, and
window-density (statistical) convergence, plus a randomised verification
harness for the inclusion theorems tying them together.
"""

from .geometric import (
    GEO_IDENTITY,
    GEO_ZERO,
    GeoRangeError,
    GeoScalar,
    GeoSequence,
    from_log,
    gabs,
    gadd,
    gmul,
    gscale,
    gsub,
    gsum,
    to_log,
)
from .fibonacci import (
    FibonacciCache,
    cassini,
    difference_entry,
    difference_transform,
    difference_transform_log,
    fib,
    fib_ratio,
    fib_inverse_ratio,
    kernel_log_sequence,
)
from .orlicz import (
    Delta2Report,
    DegenerateOrliczError,
    OrliczFunction,
    ScaleSolverError,
    delta2_constant,
    luxemburg_norm,
    solve_scale,
    validate_on_grid,
)
from .summability import (
    BOUNDED,
    CONVERGING,
    DIVERGING,
    INCONCLUSIVE,
    Exponents,
    LambdaSequence,
    MembershipReport,
    ParanormResult,
    SpaceSpec,
    Tolerances,
    classify_membership,
    modular_window,
    paranorm,
    vp_mean,
    window,
    window_trace,
    windowed_logs,
)
from .statconv import DensityTrace, modular_density_bound, stat_converges, stat_density
from .harness import (
    MemberSample,
    SuiteReport,
    TrialConfig,
    check_delta2_inclusion,
    check_exponent_inclusion,
    check_linear_combination,
    check_solidity,
    generate_member,
    run_suite,
)
from .fileio import (
    InputError,
    RunConfig,
    emit_report,
    load_config,
    parse_sequence_file,
    write_sequence_file,
)

__version__ = "0.1.0"

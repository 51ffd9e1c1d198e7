"""geoseq: geometric-calculus sequence analysis.

Arithmetic for the multiplicative (geometric) calculus, the banded
Fibonacci difference transform, Orlicz functions with the Luxemburg
norm, windowed modular membership diagnostics with their paranorm, and
window-density (statistical) convergence, plus a randomised verification
harness for the inclusion theorems tying them together.

The names below load on first use (PEP 562), so a command imports only
the submodules it runs: ``import geoseq`` alone loads none of them.
"""

from importlib import import_module

# the public names, by the submodule that defines them
_EXPORTS = {
    "geometric": (
        "GEO_IDENTITY",
        "GEO_ZERO",
        "GeoRangeError",
        "GeoScalar",
        "GeoSequence",
        "from_log",
        "gabs",
        "gadd",
        "gmul",
        "gscale",
        "gsub",
        "gsum",
        "to_log",
    ),
    "fibonacci": (
        "FibonacciCache",
        "cassini",
        "difference_entry",
        "difference_transform",
        "difference_transform_log",
        "fib",
        "fib_ratio",
        "fib_inverse_ratio",
        "kernel_log_sequence",
    ),
    "orlicz": (
        "DegenerateOrliczError",
        "OrliczFunction",
        "ScaleSolverError",
    ),
    "orlicz_checks": (
        "Delta2Report",
        "delta2_constant",
        "luxemburg_norm",
        "solve_scale",
        "validate_on_grid",
    ),
    "summability": (
        "Exponents",
        "LambdaSequence",
        "ParanormResult",
        "SpaceSpec",
        "Tolerances",
        "modular_window",
        "paranorm",
        "vp_mean",
        "window",
        "window_trace",
        "windowed_logs",
    ),
    "membership": (
        "BOUNDED",
        "CONVERGING",
        "DIVERGING",
        "INCONCLUSIVE",
        "MembershipReport",
        "classify_membership",
    ),
    "statconv": (
        "DensityTrace",
        "modular_density_bound",
        "stat_converges",
        "stat_density",
    ),
    "harness": (
        "MemberSample",
        "SuiteReport",
        "TrialConfig",
        "check_delta2_inclusion",
        "check_exponent_inclusion",
        "check_linear_combination",
        "check_solidity",
        "generate_member",
        "run_suite",
    ),
    "fileio": (
        "InputError",
        "RunConfig",
        "emit_report",
        "load_config",
        "parse_sequence_file",
        "write_sequence_file",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# names that moved out of the submodule that first defined them, by that
# submodule: (their new home, the names), which its __getattr__ still
# serves.  bench/tracing.py imports delta2_constant, small_argument_threshold
# and classify_membership from the old homes, and tests/test_lazy_imports.py
# reads every public name there; this table and the two hooks go once
# tracing.py imports them from geoseq.orlicz_checks and geoseq.membership.
_MOVED = {
    "geoseq.orlicz": ("orlicz_checks", (
        *_EXPORTS["orlicz_checks"], "OrliczDiagnostics", "log_grid",
        "small_argument_threshold",
    )),
    "geoseq.summability": ("membership", _EXPORTS["membership"]),
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound on import as an eager package binds it
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def _moved(module: str, name: str):
    """The attribute ``name`` of the submodule ``module``, if it moved out."""
    home, names = _MOVED[module]
    if name not in names:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})

"""Continued fractions with large prime partial quotients, at desk scale.

Exact continued-fraction kernels, almost-prime zeta tails, Lebesgue
measures of prime level sets, pressure-equation dimensional numbers, and
the two Cantor constructions carrying the dimension bounds.

Each submodule runs the first time one of its attributes is read, so a
process executes only the modules, and imports only the dependencies
(mpmath above all), that its work calls.  The names below are re-exported
the same way: `primecf.pzeta_tail` loads `primecf.zeta` when first read.
"""
import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "cantor": (
        "BoxDimEstimate", "CantorLevel", "EBParams", "EBTree", "HolderReport",
        "LuczakParams", "alpha_identity_errors", "alpha_values",
        "box_dimension_estimate", "eb_prefix_tree", "falconer_limit",
        "falconer_lower_bound", "gap_check", "holder_check", "luczak_levels",
        "make_eb_params", "prime_block_constant",
    ),
    "contfrac": (
        "ContinuantPair", "FundamentalInterval", "check_continuant_bounds",
        "continuants", "expand_rational", "expand_real", "fundamental_interval",
        "union_measure",
    ),
    "errors": (
        "BracketError", "ConstructionInfeasibleError", "DivergentSeriesError",
        "EnumerationGuardError", "GuardError", "OutOfRangeError",
        "UndefinedExponentError",
    ),
    "measure": (
        "BBSeriesReport", "LevelSetMeasure", "MCExperiment", "ZeroOneReport",
        "borel_bernstein_table", "level_set_measure", "run_zero_one_experiment",
    ),
    "pressure": (
        "DimensionReport", "GrowthExponents", "PressureProblem", "classify_growth",
        "dimensional_number", "f_ell", "hwx_dimension", "partition_sum",
    ),
    "primes": ("PrimeSieve", "almost_primes", "is_prime_trial", "primes_in"),
    "zeta": (
        "AsymptoticRatioRow", "TailSumResult", "asymptotic_table", "pzeta_tail",
        "pzeta_via_mobius", "zeta_em",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_SOURCE]


def _register(module: str):
    """primecf.<module> in sys.modules and as an attribute, executed on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    # The CLI module is imported on first use, so that `python -m primecf.cli`
    # does not find it already loaded by the package.
    if name == "schema_for":
        from .cli import schema_for
        return schema_for
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})

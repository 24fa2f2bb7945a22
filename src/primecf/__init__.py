"""Continued fractions with large prime partial quotients, at desk scale.

Exact continued-fraction kernels, almost-prime zeta tails, Lebesgue
measures of prime level sets, pressure-equation dimensional numbers, and
the two Cantor constructions carrying the dimension bounds.
"""
from .cantor import (
    BoxDimEstimate,
    CantorLevel,
    EBParams,
    EBTree,
    FalconerRatio,
    GapReport,
    HolderReport,
    LuczakParams,
    alpha_identity_errors,
    alpha_values,
    box_dimension_estimate,
    eb_prefix_tree,
    falconer_limit,
    falconer_lower_bound,
    gap_check,
    holder_check,
    luczak_levels,
    make_eb_params,
    prime_block_constant,
)
from .contfrac import (
    ContinuantPair,
    FundamentalInterval,
    check_continuant_bounds,
    continuants,
    expand_rational,
    expand_real,
    fundamental_interval,
    union_measure,
)
from .errors import (
    BracketError,
    ConstructionInfeasibleError,
    DivergentSeriesError,
    EnumerationGuardError,
    GuardError,
    OutOfRangeError,
    UndefinedExponentError,
)
from .measure import (
    BBSeriesReport,
    LevelSetMeasure,
    MCExperiment,
    ZeroOneReport,
    borel_bernstein_table,
    level_set_measure,
    run_zero_one_experiment,
)
from .pressure import (
    DimensionReport,
    GrowthExponents,
    PressureProblem,
    classify_growth,
    dimensional_number,
    f_ell,
    hwx_dimension,
    partition_sum,
)
from .primes import (
    PrimeSieve,
    almost_primes,
    is_prime_trial,
    primes_in,
)
from .zeta import (
    AsymptoticRatioRow,
    TailSumResult,
    asymptotic_table,
    pzeta_tail,
    pzeta_via_mobius,
    zeta_em,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI module is imported on first use, so that `python -m primecf.cli`
    # does not find it already loaded by the package.
    if name == "schema_for":
        from .cli import schema_for
        return schema_for
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

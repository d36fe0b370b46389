"""Pressure-dimension toolkit.

Estimates and exactly computes the growth of weighted orbit counts
(separated sets, spanning sets, weighted subcovers) on model dynamical
systems, and extracts the critical polynomial exponent at which the
associated s-weighted pressure jumps from infinity to zero.
"""

from .systems import (
    Word,
    RealPoint,
    real,
    FullShift,
    SFT,
    golden_mean_sft,
    DoublingMap,
    Rotation,
    Contraction,
    PowerSystem,
    FactorMap,
    binary_expansion_map,
    identity_factor,
    CandidateSet,
    BudgetExceededError,
)
from .potentials import (
    Birkhoff,
    ConstantDrift,
    MatrixCocycle,
    zero_potential,
    symbol_weights,
    add,
    scale,
    pullback,
    time_power,
    inverse_twist,
    coboundary_perturb,
    verify_almost_additive,
    sup_inf_norm,
)
from .partition import (
    Estimator,
    GrowthSample,
    SeparationInstance,
    make_instance,
    make_instances,
    greedy_separated,
    separated_lower_bound,
    spanning_upper_bound,
    exact_separated_value,
    exact_spanning_value,
    count_spanning_separated,
)
from .symbolic import (
    log_weighted_word_sum,
    log_weighted_word_sums,
    log_weighted_word_tables,
    exact_growth_table,
)
from .dimension import (
    GrowthTable,
    PressureCurve,
    DimensionEstimate,
    growth_tables,
    s_pressure,
    pressure_curve,
    pressure_curves,
    classify_jump,
    dimension_estimate,
    entropy_dimension,
)
from .theorems import (
    CheckReport,
    check_chain,
    check_prop22,
    check_thm31,
    check_thm32,
    check_thm33,
    check_thm34,
    check_thm35,
    check_section4,
    run_suite,
    SUITE_NAMES,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

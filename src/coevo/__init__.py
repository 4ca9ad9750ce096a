"""Competitive co-evolution of bitstring strategies.

A numpy-backed engine for two-population co-evolutionary search with
pairwise dominance selection, the bilinear maximin benchmark game it is
analysed on, level-based diagnostics with exact small-instance oracles,
closed-form runtime bound calculators, and a reproducible experiment
harness.
"""

from .bilinear import (
    BilinearGame,
    BilinearParams,
    bilinear_target,
    classify_predator,
    classify_prey,
    dominates,
    dominates_by_onecounts,
    intransitivity_witness,
    payoff,
    payoff_by_onecounts,
    worst_case_f,
)
from .core import (
    BitVector,
    PairedPopulations,
    Population,
    derive_seed,
    ones,
    paired_uniform,
    spawn_stream,
)
from .levels import (
    GrowthLemmaReport,
    LevelFunctionParams,
    LevelSequence,
    build_bilinear_levels,
    check_growth_lemmas,
    current_level,
    eta_window,
    exact_selection_distribution,
    half_prob_conditionals,
    level_pair_counts,
    reference_g1_g2,
    selection_slot_rates,
    validate_level_function,
)
from .pdcoea import (
    PdcoeaConfig,
    PdcoeaDistribution,
    TrajectoryRow,
    TrialRecord,
    run_trial,
    run_trials,
    singleton_target,
    step_generation,
    trajectory_columns,
)
from .theory import (
    BoundValue,
    CheckResult,
    chi_slack,
    error_threshold,
    level_process_bound,
    solvable_regime_budget,
    recipe_mutation_rate,
)

__version__ = "0.1.0"

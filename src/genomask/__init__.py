"""genomask: erasure-based masking of sensitive positions in discrete
sequences, with the released output provably independent of the hidden
values, plus the oracles, bounds and baselines to verify it exactly."""

from .baselines import (
    MismatchPair,
    RobustnessResult,
    robustness_experiment,
    sequence_kl,
    window_erased,
    window_leakage_exact,
    window_leakage_sweep,
    window_mask,
)
from .bounds import (
    LpSolution,
    lp_optimal_rate,
    lp_output_distribution,
    markov_sufficient_condition_check,
    upper_bound_rate,
)
from .distributions import (
    Alphabet,
    ExplicitJointModel,
    HmmModel,
    MarkovChainModel,
    SequenceModel,
    load_model_config,
    load_panel,
    save_panel,
)
from .errors import (
    CapacityError,
    DegenerateSensitiveError,
    GenomaskError,
    ImpossibleContextError,
    InputError,
    NumericalError,
)
from .hardness import (
    HittingSetInstance,
    ParityModel,
    best_ordering_exhaustive,
    deterministic_erasure_set,
    min_hitting_set_bruteforce,
    verify_deterministic_rule,
)
from .hmm import (
    BatchMaskingSession,
    SensitiveBackwardTable,
    mask_hmm_batch,
    sensitive_backward_table,
    sensitive_conditionals,
)
from .info import entropy, kl_divergence, mutual_information
from .masking import STAR, MaskedSequence, Ordering, TranscriptEntry
from .mechanism import (
    EnumeratedMechanism,
    OutputDistribution,
    achievable_rate_exact,
    achievable_rate_mc,
    exact_output_distribution,
    mask_sequence,
    rate_from_stepwise_minima,
)

__version__ = "0.1.0"

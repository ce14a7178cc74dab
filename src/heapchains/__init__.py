"""Partitioning finite partial orders into a minimum number of k-ary chains.

Three mutually cross-checking algorithm families: an exact max-flow solver on
the k-split graph (any poset), greedy best-fit slot algorithms (interval
sequences and sets, permutations, plus maximum single-chain subsets), and a
sweep-line variant for box dominance orders.  A Monte-Carlo module estimates
the chain-count scaling of the interval particle process on random inputs.

numpy is imported inside the function that calls it, never at module level,
so importing the package, the flow solver on a poset read from relations,
and the poset oracles never load it.
"""

from .flow import (
    InvalidMatching,
    LeftKMatching,
    SplitGraph,
    build_split_graph,
    k_width,
    matching_to_partition,
    max_left_k_matching,
)
from .greedy import (
    ATTACHED,
    NEW_CHAIN,
    REJECTED,
    IncompatibleChoice,
    TraceStep,
    best_fit_trace,
    chain_signatures,
    dominates,
    greedy_max_heapable_subset,
    greedy_partition_permutation,
    greedy_partition_sequence,
    greedy_partition_set,
    insert_interval,
    signature,
)
from .oracle import (
    TooLarge,
    max_clique_intervals,
    oracle_k_width,
    oracle_max_heapable,
    oracle_width_antichain,
)
from .poset import (
    Box,
    CycleError,
    ElementMismatch,
    FrozenRecordError,
    HeapForest,
    IdOutOfRange,
    Interval,
    NotAPermutation,
    Poset,
    poset_from_box_set,
    poset_from_interval_sequence,
    poset_from_interval_set,
    poset_from_permutation,
    poset_from_relations,
    verify_forest,
)
from .simulate import (
    MODE_SEQUENCE,
    MODE_SORTED_SET,
    SimConfig,
    SimStats,
    estimate_scaling,
    run_process,
    sample_intervals,
    trial_rng,
    write_trials_csv,
)
from .sweep import sweep_partition

__version__ = "0.1.0"

__all__ = [
    "ATTACHED",
    "Box",
    "CycleError",
    "ElementMismatch",
    "FrozenRecordError",
    "HeapForest",
    "IdOutOfRange",
    "IncompatibleChoice",
    "Interval",
    "InvalidMatching",
    "LeftKMatching",
    "MODE_SEQUENCE",
    "MODE_SORTED_SET",
    "NEW_CHAIN",
    "NotAPermutation",
    "Poset",
    "REJECTED",
    "SimConfig",
    "SimStats",
    "SplitGraph",
    "TooLarge",
    "TraceStep",
    "best_fit_trace",
    "build_split_graph",
    "chain_signatures",
    "dominates",
    "estimate_scaling",
    "greedy_max_heapable_subset",
    "greedy_partition_permutation",
    "greedy_partition_sequence",
    "greedy_partition_set",
    "insert_interval",
    "k_width",
    "matching_to_partition",
    "max_clique_intervals",
    "max_left_k_matching",
    "oracle_k_width",
    "oracle_max_heapable",
    "oracle_width_antichain",
    "poset_from_box_set",
    "poset_from_interval_sequence",
    "poset_from_interval_set",
    "poset_from_permutation",
    "poset_from_relations",
    "run_process",
    "sample_intervals",
    "signature",
    "sweep_partition",
    "trial_rng",
    "verify_forest",
    "write_trials_csv",
]

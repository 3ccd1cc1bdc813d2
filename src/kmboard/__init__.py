"""Combinatorics of the quintic collapsing-map board game.

Collapsing-map pairs, admissible ternary trees, the three move group
actions with their canonical forms, time-integration domains, and
symbolic Duhamel expansions, with exhaustive desk-scale verification of
the counting and structure claims.
"""

from .canonical import (
    is_reference,
    is_tamed,
    is_upper_echelon,
    tier,
    tier_table,
    to_reference,
    to_tamed,
)
from .counting import catalan_ternary, census
from .domains import (
    TimePoset,
    count_linear_extensions,
    induced_order,
    linear_extensions,
    relabel_domain,
    sigma_set,
    tc_domain,
    td_domain,
    tr_domain,
)
from .duhamel import (
    DTree,
    build_dtree,
    estimate_schedule,
    expand,
    expand_oracle,
    integrated_expand,
    mark_dtree,
    normalize,
    substitute_times,
    unclogged_count,
)
from .moves import (
    MoveState,
    allowable_permutations,
    apply_signed_km,
    apply_wild,
    km_admissible_indices,
    km_class,
    skeleton_fiber,
)
from .pairs import (
    CollapsingPair,
    TimePermutation,
    enumerate_pairs,
    validate_pair,
)
from .trees import (
    Skeleton,
    SignedTree,
    echelon_labeling,
    pair_from_tree,
    skeleton_of,
    tamed_labeling,
    tree_from_pair,
)

__version__ = "0.1.0"

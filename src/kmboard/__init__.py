"""Combinatorics of the quintic collapsing-map board game.

Collapsing-map pairs, admissible ternary trees, the three move group
actions with their canonical forms, time-integration domains, and
symbolic Duhamel expansions, with exhaustive desk-scale verification of
the counting and structure claims.
"""

from .canonical import (
    is_reference,
    is_tamed,
    to_reference,
    to_tamed,
)
from .counting import catalan_ternary, census
from .domains import (
    TimePoset,
    count_linear_extensions,
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
)
from .moves import MoveState, apply_wild
from .pairs import (
    CollapsingPair,
    TimePermutation,
    enumerate_pairs,
    validate_pair,
)
from .trees import (
    SignedTree,
    echelon_labeling,
    tamed_labeling,
    tree_from_pair,
)

__version__ = "0.1.0"

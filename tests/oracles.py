"""Slow literal definitions that the fast predicates in ``kmboard`` are checked against,
the Hypothesis strategy for pairs that the property tests draw from, and the
reference API that left ``kmboard`` because only the tests call it: KM moves
and classes, allowable permutations, extension and relabeling listings,
validated parent maps, time substitution in kernels, and tree read-back."""

import itertools
from collections import Counter, deque
from operator import itemgetter

from hypothesis import strategies as st

from kmboard import canonical, counting, domains, moves, verify
from kmboard.canonical import _bits, _MapProfile, is_reference, is_tamed, tamed_pairs, to_reference
from kmboard.counting import CensusReport, catalan_ternary
from kmboard.domains import (
    TimePoset,
    _attached_parents,
    _check_labels,
    _extension_walk,
    _hook_count,
)
from kmboard.duhamel import (
    Atom,
    Conj,
    DTree,
    Evolve,
    FLeaf,
    Prod,
    _merge_evolve,
    build_dtree,
    conj,
    evolve,
    normalize,
    prod,
)
from kmboard.errors import (
    CapExceeded,
    CensusViolation,
    CyclicRelations,
    NotAcceptable,
    NotAdmissible,
    NotTamed,
    OutOfRange,
)
from kmboard.moves import MoveState, _act, _km_acceptable
from kmboard.pairs import (
    ENUMERATION_CAP,
    SIGNS,
    CollapsingPair,
    TimePermutation,
    double_factorial_odd,
    enumerate_mus,
    enumerate_pairs,
)
from kmboard.trees import (
    SignedTree,
    _preorder,
    _sign_order,
    _slots_from_mu,
    skeleton_key,
    tree_from_pair,
)
from kmboard.verify import CheckFailed


@st.composite
def signed_pairs(draw, max_k=12):
    """A signed pair of order 1..max_k, every legal entry reachable."""
    k = draw(st.integers(1, max_k))
    mu = tuple(draw(st.integers(1, 2 * j - 1)) for j in range(1, k + 1))
    sgn = tuple(draw(st.sampled_from("+-")) for _ in range(k))
    return CollapsingPair(k, mu, sgn)


def tier(pair, label):
    """Minimal q with mu^q(label) = 1, the extension applied per step."""
    if label % 2 or not 2 <= label <= 2 * pair.k:
        raise OutOfRange(f"tier is defined on even labels 2..{2 * pair.k}")
    return tier_table(pair)[label]


def tier_table(pair):
    """t(2j) for every even label (t(2) = 1 by convention)."""
    return {x: t for x, (t, _, _) in zip(pair.even_labels, _MapProfile(pair.mu).keys)}


def is_upper_echelon(pair):
    return all(pair.mu[j - 1] <= pair.mu[j] for j in range(1, pair.k))


# -- the reference API that moved out of kmboard -------------------------------


def transposition(k, a, b):
    """The swap of even labels ``a`` and ``b``."""
    image = list(range(2, 2 * k + 1, 2))
    ia, ib = (a - 2) // 2, (b - 2) // 2
    image[ia], image[ib] = image[ib], image[ia]
    return TimePermutation(k, tuple(image))


def is_identity(rho):
    return all(v == 2 * (j + 1) for j, v in enumerate(rho.image))


def km_admissible_indices(pair):
    """Indices j in {2..k-1} where the adjacent move is acceptable."""
    return [j for j in range(2, pair.k) if _km_acceptable(pair.mu, j)]


def apply_signed_km(state, j):
    """One signed KM acceptable move at index j (an involution)."""
    pair = state.pair
    if not _km_acceptable(pair.mu, j):
        raise NotAcceptable(j)
    rho = transposition(pair.k, 2 * j, 2 * j + 2)
    return MoveState(_act(pair, rho, conjugate=True), rho.compose(state.sigma))


def km_class(pair, signed=True, cap=None, with_moves=False):
    """Closure of the pair under all admissible (signed) moves.

    Breadth-first; unsigned mode forces all signs to ``+`` first.  With
    ``with_moves`` the result maps each member to a witnessing move
    sequence (j indices, in application order) from the seed.
    """
    seed = pair if signed else pair.unsigned()
    seen = {seed: ()}
    frontier = deque([seed])
    while frontier:
        current = frontier.popleft()
        for j in km_admissible_indices(current):
            rho = transposition(current.k, 2 * j, 2 * j + 2)
            nxt = _act(current, rho, conjugate=True)
            if nxt not in seen:
                if cap is not None and len(seen) >= cap:
                    raise CapExceeded(f"class size exceeds cap {cap}")
                seen[nxt] = seen[current] + (j,)
                frontier.append(nxt)
    return seen if with_moves else frozenset(seen)


def allowable_permutations(pair):
    """All permutations allowable for a tamed pair, identity included.

    Constructive (``moves._interleavings``), in lexicographic image order.
    """
    if not is_tamed(pair):
        raise NotTamed(f"allowable permutations are defined on tamed pairs: {pair}")
    # each branch goes onto itself, so every image is a permutation
    return [
        TimePermutation._unchecked(pair.k, image)
        for image in moves._interleavings(canonical._profile(tuple(pair.mu)).groups, pair.sgn)
    ]


def poset_from_parents(k, parent):
    """Forest order: ``parent[x]`` is the upper cover of ``x``.

    A root maps to ``None`` (a label missing from the map is a root
    too).  This validates a caller's map: it raises
    :class:`OutOfRange` for a label that is not odd in 1..2k+1 and
    :class:`CyclicRelations` if a parent chain returns to itself.
    """
    _check_labels(k, parent.keys() | (set(parent.values()) - {None}))
    poset = TimePoset(k, tuple(parent.get(x) for x in range(1, 2 * k + 2, 2)))
    reached = poset._top_down()
    if len(reached) <= k:
        # an element no root reaches walks up into a cycle
        x = next(x for x in poset.elements if x not in reached)
        chain = []
        while x not in chain:
            chain.append(x)
            x = poset.parent[x // 2]
        cycle = sorted(chain[chain.index(x) :])
        a, b = cycle[0], cycle[min(1, len(cycle) - 1)]
        raise CyclicRelations(f"t_{a} and t_{b} are mutually ordered")
    return poset


#: Odd labels from largest time to smallest.
TotalOrder = tuple[int, ...]

EXTENSION_CAP = 10**6


def _forest_orders(parent):
    """Every linear extension of a forest as a tuple of labels; ``parent`` as
    for ``domains._hook_count``, numbered in its order for the walk."""
    labels = list(parent)
    number = {x: j for j, x in enumerate(labels, 1)}
    up = [0] + [0 if p is None else number[p] for p in parent.values()]
    for pos in _extension_walk(up):
        yield tuple(sorted(labels, key=lambda x: pos[number[x]]))


def linear_extensions(poset, cap=EXTENSION_CAP):
    """All total orders refining the poset (largest time first)."""
    parent = poset._top_down()
    if _hook_count(parent) > cap:
        raise CapExceeded(f"more than {cap} linear extensions")
    return frozenset(_forest_orders(parent))


def sigma_set(pair, cap=EXTENSION_CAP):
    """All rho with rho(parent) < rho(child) along the tree of the map.

    In bijection with the linear extensions of the tree order; listed
    in lexicographic image order.
    """
    tree = tree_from_pair(pair)
    evens = tuple(tree.labels)
    parent = {x: None if tree.parent_of(x) == 1 else tree.parent_of(x) for x in evens}
    if _hook_count(parent) > cap:
        raise CapExceeded(f"more than {cap} order-preserving relabelings")
    perms = []
    for topo in _forest_orders(parent):
        image = {x: 2 * (i + 1) for i, x in enumerate(topo)}
        perms.append(
            TimePermutation(pair.k, tuple(image[2 * j] for j in range(1, pair.k + 1)))
        )
    return sorted(perms, key=lambda p: p.image)


def induced_order(rho) -> TotalOrder:
    """The simplex of rho: t_1 >= t_{rho^-1(3)} >= ... >= t_{rho^-1(2k+1)}."""
    inv = rho.inverse()
    return (1,) + tuple(inv.of(2 * l + 1) for l in range(1, rho.k + 1))


def _substitute(e, rename, atom):
    """Rebuild ``e`` through the eager constructors, time labels renamed
    and, unless ``atom`` is None, every atom replaced by ``atom``."""
    if isinstance(e, Atom):
        return e if atom is None else atom
    if isinstance(e, Conj):
        return conj(_substitute(e.body, rename, atom))
    if isinstance(e, Evolve):
        return evolve(rename(e.a), rename(e.b), _substitute(e.body, rename, atom))
    return prod(tuple(_substitute(f, rename, atom) for f in e.factors))


def substitute_times(e, sigma):
    """Relabel times by t_a -> t_{sigma(a)} (t_1 fixed), then normalize.

    All odd labels move, the final time 2k+1 included: the relabeling
    identities compare kernels whose datum slot moves with sigma.
    """
    return normalize(_substitute(e, lambda a: a if a is None else sigma.of(a), None))


def as_flow(e, k):
    """Rebase the profile onto a datum free-evolving from time zero.

    Substitutes ``phi = U_{2k+1} phi0``; propagator chains that used to
    stop at the final time then telescope through it.  This is the
    reading under which the wild-move relabeling identity holds pointwise.
    """
    return _substitute(e, lambda a: a, Evolve(2 * k + 1, None, Atom()))


def unclogged_count(dtree):
    """Couplings l < k whose node has an F child (the decay sources)."""
    return sum(1 for l in range(1, dtree.k) if dtree.has_f_child(2 * l))


def relation_pairs(integrated):
    """Every t_a >= t_b the bounds of an ``IntegratedExpansion`` encode
    (uppers, lowers, outer)."""
    rels = [(1, integrated.outer[0])]
    for x, (lower, upper) in sorted(integrated.bounds.items()):
        rels.append((upper, x + 1))
        if lower:
            rels.append((x + 1, lower))
    return rels


def pair_from_tree(tree):
    """Read the collapsing map back off an admissible tree."""
    k = tree.k
    mu = {2: 1}
    for x in tree.labels:
        l, m, r = tree.slots[x]
        for c in (l, m, r):
            if c is not None and c <= x:
                raise NotAdmissible(f"child {c} of node {x} is not larger")
        if l is not None:
            mu[l] = mu[x]
        if m is not None:
            mu[m] = x
        if r is not None:
            mu[r] = x + 1
    if len(mu) != k:
        raise NotAdmissible("tree is not connected over all labels")
    return CollapsingPair(
        k,
        tuple(mu[2 * j] for j in range(1, k + 1)),
        tuple(tree.sign[2 * j] for j in range(1, k + 1)),
    )


def literal_tiers(pair):
    """t(x) by iterating the extended map down to 1, one label at a time."""
    tiers = {}
    for x in pair.even_labels:
        q, y = 0, x
        while y != 1:
            y = pair.mu_of(y)
            q += 1
        tiers[x] = q
    return tiers


def _tamed_keys(pair):
    """(tier, mu^2, sgn(mu), mu) per even label; mu=1 parents get sentinels."""
    tiers = literal_tiers(pair)
    keys = {}
    for x in pair.even_labels:
        v = pair.mu_of(x)
        if v == 1:
            keys[x] = (tiers[x], 0, None, v)
        else:
            keys[x] = (tiers[x], pair.mu_of(v), pair.sgn_of(v), v)
    return keys


def _required_before(ka, kb) -> bool:
    """Must a node with key ``ka`` carry a smaller label than one with ``kb``?"""
    ta, m2a, sa, ma = ka
    tb, m2b, sb, mb = kb
    if ta != tb:
        return ta < tb
    if m2a == m2b:
        if sa == sb and ma < mb:
            return True
        return sa == "+" and sb == "-"
    return ma < mb


def literal_is_tamed(pair) -> bool:
    """The four ordering clauses, checked pairwise over labels."""
    keys = _tamed_keys(pair)
    labels = list(pair.even_labels)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if _required_before(keys[b], keys[a]):
                return False
    return True


def groups_of(pair) -> dict[int, list[int]]:
    """The left-branch partition: value i -> sorted labels with mu = i."""
    groups: dict[int, list[int]] = {}
    for j in range(1, pair.k + 1):
        groups.setdefault(pair.mu[j - 1], []).append(2 * j)
    return groups


def literal_is_reference(pair) -> bool:
    """Tamed, and every left branch is a + block followed by a - block."""
    if not literal_is_tamed(pair):
        return False
    for members in groups_of(pair).values():
        signs = [pair.sgn_of(x) for x in members]
        if "-" in signs and "+" in signs[signs.index("-") :]:
            return False
    return True


def tamed(profile, sgn) -> bool:
    """``_MapProfile.sign_sets``'s tamed bit, read one sign array at a time:
    no index pair of the profile's clauses 3 and 4 breaks its clause."""
    if not profile.static_ok:
        return False
    for ia, ib in profile.equal_checks:
        if sgn[ia] == sgn[ib]:
            return False
    for ia, ib in profile.order_checks:
        if sgn[ia] == "-" and sgn[ib] == "+":
            return False
    return True


def blocks_ordered(profile, sgn) -> bool:
    """Every left branch of the profile's map lists its + members before its - members."""
    for g in profile.groups:
        seen_minus = False
        for i in g:
            if sgn[i] == "-":
                seen_minus = True
            elif seen_minus:
                return False
    return True


def fixpoint_closure(pairs) -> frozenset:
    """Transitive closure by adding composed pairs until nothing changes."""
    closure = set(pairs)
    while True:
        extra = {
            (a, d)
            for a, b in closure
            for c, d in closure
            if b == c and (a, d) not in closure
        }
        if not extra:
            return frozenset(closure)
        closure |= extra


def brute_force_extensions(poset) -> frozenset:
    """Orderings of the elements, larger first, that respect every relation."""
    orders = []
    for order in itertools.permutations(poset.elements):
        place = {x: i for i, x in enumerate(order)}
        if all(place[a] < place[b] for a, b in poset.closure):
            orders.append(order)
    return frozenset(orders)


def stack_forest_orders(parent: dict):
    """Every linear extension of a forest, each exactly once, by choice sequences.

    ``parent[x]`` is the upper cover of ``x`` (None for a root), parents
    listed before children.  Starting from the roots, pick any available
    node and make its children available; each choice sequence is one
    extension.  An explicit stack keeps deep chains off the recursion
    limit.
    """
    children: dict = {x: () for x in parent}
    roots = []
    for x, p in parent.items():
        if p is None:
            roots.append(x)
        else:
            children[p] += (x,)
    n = len(parent)
    stack = [((), tuple(roots))]
    while stack:
        prefix, free = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        for i, x in enumerate(free):
            stack.append((prefix + (x,), free[:i] + free[i + 1 :] + children[x]))


def relabeling_orders(pair) -> list:
    """The simplex of every rho in Sigma(pair), in lexicographic image order.

    Each topological order of the tree's nodes gives a validated
    permutation rho (the i-th node goes to 2(i+1)), and ``induced_order``
    reads its simplex through rho^-1.
    """
    tree = tree_from_pair(pair)
    parent = {x: None if tree.parent_of(x) == 1 else tree.parent_of(x) for x in tree.labels}
    perms = []
    for topo in stack_forest_orders(parent):
        image = {x: 2 * (i + 1) for i, x in enumerate(topo)}
        perms.append(TimePermutation(pair.k, tuple(image[x] for x in tree.labels)))
    return [induced_order(rho) for rho in sorted(perms, key=lambda p: p.image)]


# -- the domains as relation sets, before they were built from parent maps ----


def td_relations(pair) -> list:
    """One relation per admissible-tree edge, plus t_1 >= t_3."""
    tree = tree_from_pair(pair)
    relations = [(1, 3)]
    for x in tree.labels:
        p = tree.parent_of(x)
        if p != 1:
            relations.append((p + 1, x + 1))
    return relations


def tree_td_domain(pair):
    """td read off the admissible tree: one cover per tree edge, node 2 under t_1."""
    tree = tree_from_pair(pair)
    parent = {1: None}
    for x in tree.labels:
        p = tree.parent_of(x)
        parent[x + 1] = 1 if p == 1 else p + 1
    return poset_from_parents(pair.k, parent)


def relabel_domain(poset: TimePoset, sigma: TimePermutation) -> TimePoset:
    """sigma[poset]: t_a -> t_{sigma(a-1)+1} on every relation, t_1 fixed.

    The renaming is a bijection of the labels fixing t_1, hence an order
    isomorphism: renaming the cover map gives the cover map.
    """
    rename = [sigma.of(x) for x in poset.elements]
    parent = [None] * (poset.k + 1)
    for x, p in zip(rename, poset.parent):
        parent[x // 2] = None if p is None else rename[p // 2]
    return TimePoset(poset.k, tuple(parent))


def set_partition_holds(reference, whole, orbit) -> bool:
    """Do the relabeled simplexes of the orbit partition T_R = ``whole``?

    By sets of total orders: list every extension of T_R and of each
    piece td(W(rho)(R)) relabeled by rho^-1, with td read off the tree,
    and require the pieces to be pairwise disjoint with union T_R.
    """
    seen = set()
    for rho in orbit:
        moved = _act(reference, rho, conjugate=False)
        piece = linear_extensions(relabel_domain(tree_td_domain(moved), rho.inverse()))
        if piece & seen:
            return False
        seen |= piece
    return seen == linear_extensions(whole)


def scan_build_dtree(pair) -> DTree:
    """The minimal-index slot rules, each slot found by a forward scan (O(k^2))."""
    k = pair.k

    def minimal(lo: int, value: int, sign: str):
        for m in range(lo, k + 1):
            if pair.mu[m - 1] == value and pair.sgn[m - 1] == sign:
                return 2 * m
        return None

    parent = {}
    left = minimal(1, 1, "+")
    right = minimal(1, 1, "-")
    root = (
        left if left is not None else FLeaf(1, "+"),
        right if right is not None else FLeaf(1, "-"),
    )
    for c in root:
        if not isinstance(c, FLeaf):
            parent[c] = 0
    kids = {}
    for j in range(1, k + 1):
        targets = (
            (pair.mu[j - 1], pair.sgn[j - 1]),
            (2 * j, "+"),
            (2 * j, "-"),
            (2 * j + 1, "+"),
            (2 * j + 1, "-"),
        )
        slots = []
        for value, sign in targets:
            hit = minimal(j + 1, value, sign)
            if hit is None:
                slots.append(FLeaf(value, sign))
            else:
                slots.append(hit)
                parent[hit] = 2 * j
        kids[2 * j] = tuple(slots)
    return DTree(k, pair.sgn, root, kids, parent)


def recursive_dtree_dot(dtree, marked=False) -> str:
    """DOT text of a Duhamel tree by one recursive preorder visit."""
    lines = ["digraph dtree {", '  d0 [label="D(0)"];']
    names = {0: "d0"}
    order = []

    def visit(x, parent_name):
        if isinstance(x, FLeaf):
            leaf = f"f{len(order)}"
            order.append(leaf)
            lines.append(f'  {leaf} [label="F({x.index},{x.sign})" shape=none];')
            lines.append(f"  {parent_name} -> {leaf};")
            return
        tag = f"D({x})"
        if marked and dtree.marks.get(x):
            tag += "[" + ",".join(sorted(dtree.marks[x])) + "]"
        names[x] = f"d{x}"
        order.append(names[x])
        lines.append(f'  d{x} [label="{tag}"];')
        lines.append(f"  {parent_name} -> d{x};")
        for c in dtree.kids[x]:
            visit(c, names[x])

    for child in dtree.root:
        visit(child, "d0")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tc_relations(pair) -> list:
    """One relation per Duhamel-tree edge (the scanned tree); the root contributes t_1."""
    dtree = scan_build_dtree(pair)
    return [(1 if p == 0 else p + 1, x + 1) for x, p in sorted(dtree.parent.items())]


def tr_relations(reference) -> list:
    """The reference formula, literally: same-branch same-sign pairs by
    label, every node below its M/R attachment point, the branch at
    value 1 under t_1."""
    relations = []
    evens = list(reference.even_labels)
    for x in evens:
        if reference.mu_of(x) == 1:
            relations.append((1, x + 1))
    for a, b in itertools.combinations(evens, 2):
        if reference.mu_of(a) == reference.mu_of(b) and reference.sgn_of(
            a
        ) == reference.sgn_of(b):
            relations.append((a + 1, b + 1))
    for b in evens:
        v = reference.mu_of(b)
        if v > 1:
            a = v if v % 2 == 0 else v - 1
            relations.append((a + 1, b + 1))
    return relations


def relabel_by_reduction(poset, sigma):
    """Rename the covers, then close again."""

    def rename(a: int) -> int:
        return 1 if a == 1 else sigma.of(a - 1) + 1

    return TimePoset.from_relations(
        poset.k, [(rename(a), rename(b)) for a, b in poset.reduction()]
    )


# -- moves and permutations, by their definitions ------------------------------


def all_permutations(k, cap=ENUMERATION_CAP):
    """Every permutation of the even labels (k! of them)."""
    if k > cap:
        raise CapExceeded(f"k={k} exceeds enumeration cap {cap}")
    for image in itertools.permutations(range(2, 2 * k + 1, 2)):
        yield TimePermutation(k, image)


def skeleton_fiber(pair, signed=True) -> frozenset:
    """All pairs with the same (signed) skeleton, by direct enumeration."""
    seed = pair if signed else pair.unsigned()
    want = skeleton_key(seed.mu, seed.sgn if signed else None)
    return frozenset(
        p
        for p in enumerate_pairs(pair.k, signed=signed)
        if skeleton_key(p.mu, p.sgn if signed else None) == want
    )


def literal_skeleton_key(mu, sgn=None) -> str:
    """The (signed) skeleton key by recursion over the child slots: the shape
    in preorder, missing children as '.', then "|" and the signs in the same
    preorder when ``sgn`` is given."""
    slots = _slots_from_mu(len(mu), mu)
    out = []

    def ser(x):
        if x is None:
            out.append(".")
            return
        out.append("(")
        for c in slots[x]:
            ser(c)
        out.append(")")

    ser(2)
    if sgn is not None:
        out.append("|")
        out.extend(sgn[(x - 2) // 2] for x in literal_preorder_positions(mu))
    return "".join(out)


def literal_preorder_positions(mu) -> tuple:
    """Even labels in preorder, by recursion over the child slots."""
    slots = _slots_from_mu(len(mu), mu)
    order = []

    def walk(x):
        if x is None:
            return
        order.append(x)
        for c in slots[x]:
            walk(c)

    walk(2)
    return tuple(order)


def dtree_integrated_bounds(pair) -> dict:
    """``integrated_expand(pair).bounds`` read off a built Duhamel tree: per
    coupling l < k, (2k+1 on the last coupling's ancestor chain else 0,
    t_{p+1} for its parent p, t_1 under the top node)."""
    dtree = build_dtree(pair)
    final = 2 * pair.k + 1
    chain = set(dtree.ancestors(2 * pair.k))
    bounds = {}
    for l in range(1, pair.k):
        x = 2 * l
        p = dtree.parent[x]
        bounds[x] = (final if x in chain else 0, 1 if p == 0 else p + 1)
    return bounds


def whole_map_preorder(mu) -> tuple:
    """``trees._preorder`` by one walk over the whole tree: the shape in
    preorder and the sign index of each node in preorder, from an explicit
    stack over the child slots."""
    slots = _slots_from_mu(len(mu), mu)
    out, order = [], []
    stack = [2]
    while stack:
        x = stack.pop()
        if x is None:
            out.append(".")
        elif x == 0:  # end of a node's slots
            out.append(")")
        else:
            out.append("(")
            order.append((x - 2) >> 1)
            l, m, r = slots[x]
            stack += (0, r, m, l)
    return "".join(out), order


def whole_map_profile(mu) -> tuple:
    """``_MapProfile(mu)``'s keys, static_ok, equal_checks, order_checks,
    groups, multi and steps, every label pair of the map compared at once; a
    static failure leaves all but the keys empty."""
    tiers = []
    for v in mu:
        tiers.append(1 if v == 1 else tiers[(v - 2) // 2] + 1)
    keys = [(t, 0 if v == 1 else mu[(v - 2) // 2], v) for t, v in zip(tiers, mu)]
    failed = (keys, False, [], [], (), (), ())
    equal_checks, order_checks = [], []
    for jb in range(1, len(mu)):  # b = 2(jb+1), a ranges below it
        tb, m2b, vb = keys[jb]
        for ja in range(jb):
            ta, m2a, va = keys[ja]
            if tb < ta:
                return failed
            if tb != ta:
                continue
            if m2a != m2b:
                if vb < va:
                    return failed
                continue
            if va == 1:  # whole tier-1 branch: no sign clause applies
                continue
            ia, ib = (va - 2) // 2, (vb - 2) // 2
            if vb < va:
                equal_checks.append((ia, ib))
            order_checks.append((ia, ib))
    by_value = {}
    for i, v in enumerate(mu):
        by_value.setdefault(v, []).append(i)
    groups = tuple(tuple(g) for g in by_value.values())
    multi = tuple([g for g in groups if len(g) > 1])
    steps = tuple(step for g in groups for step in zip(g, g[1:]))
    return keys, True, equal_checks, order_checks, groups, multi, steps


def whole_map(mu) -> tuple:
    """What :func:`walked` gives for ``mu``, by the whole-map oracles."""
    return (tuple(mu), *whole_map_preorder(mu), *whole_map_profile(mu))


def walked(mus):
    """``counting._walk`` over ``mus``: per map the profile's map, the shape,
    the preorder and the profile's fields, in :func:`whole_map` order."""
    return (
        (p.mu, shape, _sign_order(spans), p.keys, p.static_ok, p.equal_checks, p.order_checks)
        + (p.groups, p.multi, p.steps)
        for _, p, shape, spans in counting._walk(mus)
    )


def literal_unsigned_census(k) -> dict:
    """Unsigned skeleton key -> number of maps of order k with that skeleton."""
    buckets = {}
    for mu in enumerate_mus(k):
        key = literal_skeleton_key(mu)
        buckets[key] = buckets.get(key, 0) + 1
    return buckets


def _series_product(a: list, b: list) -> list:
    """The product of two power series (coefficient lists from x^0), cut to len(a) terms."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: len(a) - i]):
                out[i + j] += ai * bj
    return out


def wild_class_series(k: int) -> int:
    """[x^k] B(x) for B = sum_{m>=1} (m+1) y^m with y = x (1+B)^2, by
    fixed-point iteration on the series in integers: the definition that
    ``counting.wild_class_count``'s binomial is read from.  Each pass
    fixes one more coefficient."""
    b = [0] * (k + 1)
    for _ in range(k):
        one_b = [1] + b[1:]
        y = [0] + _series_product(one_b, one_b)[:k]
        power, b = [1] + [0] * k, [0] * (k + 1)
        for m in range(1, k + 1):
            power = _series_product(power, y)
            b = [c + (m + 1) * t for c, t in zip(b, power)]
    return b[k]


def signed_class_table_census(k, signed=True) -> CensusReport:
    """The census by one table entry per signed class, every pair looked up.

    Each (map, sign array) pair is folded into its signed skeleton key
    ``(shape, signs in preorder)`` -> ``[size, tamed members, first
    member]``, and every claim is read off that table.  The elapsed
    field is left 0.
    """
    sign_arrays = list(itertools.product("+-", repeat=k)) if signed else [("+",) * k]
    mode, times = ("signed", "2^k") if signed else ("unsigned", "2^0")
    cat = catalan_ternary(k)
    expected_classes = cat * len(sign_arrays)
    expected_total = double_factorial_odd(k) * len(sign_arrays)

    table, masses = {}, {}
    for mu in enumerate_mus(k):
        shape, order = _preorder(mu)
        signs_in_preorder = itemgetter(*order)
        profile = _MapProfile(mu)
        for sgn in sign_arrays:
            skey = (shape, signs_in_preorder(sgn))
            entry = table.get(skey)
            if entry is None:
                entry = table[skey] = [0, 0, (mu, sgn)]
            entry[0] += 1
            if tamed(profile, sgn):
                entry[1] += 1
                if blocks_ordered(profile, sgn):
                    masses[mu, sgn] = _hook_count(_attached_parents(mu, zip(mu, sgn)))

    total = sum(size for size, _, _ in table.values())
    if total != expected_total:
        raise CensusViolation(f"{mode} total {total} != (2k-1)!! {times} = {expected_total}")
    if len(table) != expected_classes:
        raise CensusViolation(
            f"{mode} class count {len(table)} != catalan*{times} = {expected_classes}"
        )
    shapes = {shape for shape, _ in table}
    if len(shapes) != cat:
        raise CensusViolation(f"unsigned class count {len(shapes)} != {cat}")
    for _, held, (mu, sgn) in table.values():
        if held != 1:
            raise CensusViolation(
                f"class of mu={mu} sgn={''.join(sgn)} holds {held} tamed pairs"
            )
    mass_total = sum(masses.values())
    if mass_total != expected_total:
        raise CensusViolation(
            f"extension mass {mass_total} over {len(masses)} reference pairs "
            f"!= {expected_total}"
        )
    return CensusReport(
        k=k,
        signed=signed,
        total_pairs=total,
        unsigned_classes=len(shapes),
        signed_classes=len(table),
        tamed_count=len(table),
        wild_classes=len(masses),
        class_size_histogram=dict(Counter(size for size, _, _ in table.values())),
        mass_total=mass_total,
        reference_masses=masses,
    )


def _permuted_value(rho, v):
    return 1 if v == 1 else rho.of(v)


def literal_act(pair, rho, conjugate):
    """mu' = rho.mu.rho^-1 (KM, conjugate) or rho.mu (wild); sgn' = sgn.rho^-1,
    through the extended maps ``of``, ``mu_of`` and ``sgn_of``."""
    rho_inv = rho.inverse()
    k = pair.k
    if conjugate:
        mu = tuple(
            _permuted_value(rho, pair.mu_of(rho_inv.of(2 * j))) for j in range(1, k + 1)
        )
    else:
        mu = tuple(_permuted_value(rho, pair.mu[j - 1]) for j in range(1, k + 1))
    sgn = tuple(pair.sgn_of(rho_inv.of(2 * j)) for j in range(1, k + 1))
    return CollapsingPair(k, mu, sgn)


def literal_is_allowable(pair, rho) -> bool:
    """Group-preserving, and every same-sign pair of a group keeps its order."""
    for x in pair.even_labels:
        if pair.mu_of(rho.of(x)) != pair.mu_of(x):
            return False
    for members in groups_of(pair).values():
        for a, b in itertools.combinations(members, 2):
            if pair.sgn_of(a) == pair.sgn_of(b) and rho.of(a) > rho.of(b):
                return False
    return True


def literal_to_reference(pair):
    """The reference pair and witness through the extended maps, unguarded."""
    image = {}
    for members in groups_of(pair).values():
        plus = [x for x in members if pair.sgn_of(x) == "+"]
        minus = [x for x in members if pair.sgn_of(x) == "-"]
        for src, dst in zip(members, plus + minus):
            image[src] = dst
    rho = TimePermutation(pair.k, tuple(image[2 * j] for j in range(1, pair.k + 1)))
    rho_inv = rho.inverse()
    k = pair.k
    mu = tuple(
        1 if pair.mu[j - 1] == 1 else rho_inv.of(pair.mu[j - 1]) for j in range(1, k + 1)
    )
    sgn = tuple(pair.sgn_of(rho.of(2 * j)) for j in range(1, k + 1))
    return CollapsingPair(k, mu, sgn), rho


def object_wild_sweep(k):
    """The wild sweep on validated objects: ``(n_tamed, classes, hits)``.

    Every tamed pair from ``tamed_pairs`` goes through the guarded
    ``to_reference``; its witness must carry the reference back through
    ``_act``, and ``is_reference`` counts the hits.  Both dicts are
    keyed by reference pair in enumeration order.
    """
    classes: dict = {}
    hits: dict = {}
    n_tamed = 0
    for pair in tamed_pairs(k):
        n_tamed += 1
        reference, rho = to_reference(pair)
        assert _act(reference, rho, conjugate=False) == pair
        classes.setdefault(reference, []).append(rho.image)
        hits[reference] = hits.get(reference, 0) + is_reference(pair)
    return n_tamed, classes, hits


def wild_sweep(k):
    """The forward wild sweep on map and sign arrays: ``(n_tamed, classes, hits)``.

    ``kmboard.verify`` ran it before its per-map fold walked each
    reference's orbit.  One profile per map finds its tamed sign arrays
    and ``canonical._reference_arrays`` reduces each.  Per tamed pair it
    checks that the reduced arrays are tamed and block-ordered (a
    reference pair), that the witness is allowable, and that the wild
    move by the witness carries them back to the pair; a pair is a hit
    when its own branches are block-ordered.  Raises ``CheckFailed`` at
    the first pair that fails.  ``classes`` maps each reference pair to
    its members' witness images and ``hits`` to its number of hits,
    both in enumeration order.
    """
    classes: dict = {}
    hits: dict = {}
    n_tamed = 0
    for mu in enumerate_mus(k):
        profile = canonical._profile(mu)
        if not profile.static_ok:
            continue
        for sgn in itertools.product(SIGNS, repeat=k):
            if not tamed(profile, sgn):
                continue
            n_tamed += 1
            ref_mu, ref_sgn, image = canonical._reference_arrays(mu, sgn, profile.groups)
            # an unchecked pair finds the class; a new class keys a validated one
            reference = CollapsingPair._unchecked(k, ref_mu, ref_sgn)
            images = classes.get(reference)
            if images is None:
                reference = CollapsingPair(k, ref_mu, ref_sgn)
                images = classes[reference] = []
                hits[reference] = 0
            ref_profile = canonical._profile(ref_mu)
            if not (tamed(ref_profile, ref_sgn) and blocks_ordered(ref_profile, ref_sgn)):
                raise CheckFailed(
                    f"k={k}: {CollapsingPair(k, mu, sgn)} reduces to {reference}, "
                    "not a reference pair"
                )
            if not moves._allowable(ref_mu, ref_sgn, image):
                raise CheckFailed(
                    f"k={k}: witness rho={','.join(map(str, image))} of "
                    f"{CollapsingPair(k, mu, sgn)} is not allowable for {reference}"
                )
            if moves._act_arrays(ref_mu, ref_sgn, image, conjugate=False) != (mu, sgn):
                raise CheckFailed(f"k={k}: witness failed for {CollapsingPair(k, mu, sgn)}")
            images.append(image)
            if blocks_ordered(profile, sgn):
                hits[reference] += 1
    return n_tamed, classes, hits


def orbit_failure(reference, orbit, members):
    """Is the orbit of one reference pair its whole wild class?  Say what
    fails, or None: ``kmboard.verify``'s per-pair walk before it walked
    the orbit once per split of a map's references.

    ``orbit`` lists the allowable images: it starts at the identity and
    repeats none.  Each is allowable, its member tamed, and the member
    reduces to exactly the reference and that image; one member is
    block-ordered.  ``members`` keeps per image what depends on the map
    alone: the member map, the index that gathers its signs, its profile.
    """
    k, mu, sgn = reference.k, reference.mu, reference.sgn
    rho = lambda image: f"rho={','.join(map(str, image))}"  # noqa: E731
    if not orbit or orbit[0] != tuple(range(2, 2 * k + 1, 2)):
        return f"wild class of {reference} != its orbit"
    if len(set(orbit)) != len(orbit):
        repeated = next(image for i, image in enumerate(orbit) if image in orbit[:i])
        return f"orbit of {reference} repeats {rho(repeated)}"
    hits = 0
    for image in orbit:
        if not moves._allowable(mu, sgn, image):
            return f"{rho(image)} is not allowable for {reference}"
        if image not in members:
            member_mu, src = moves._act_arrays(mu, range(k), image, conjugate=False)
            members[image] = member_mu, src, _MapProfile(member_mu)
        member_mu, src, member = members[image]
        member_sgn = tuple([sgn[i] for i in src])
        tamed, ordered = member.sign_sets(canonical._sign_table((member_sgn,)))
        if not tamed:
            pair = CollapsingPair._unchecked(k, member_mu, member_sgn)
            return f"{rho(image)} carries {reference} to {pair}, not a tamed pair"
        got = canonical._reference_arrays(member_mu, member_sgn, member.groups)
        if got != (mu, sgn, image):
            pair = CollapsingPair._unchecked(k, member_mu, member_sgn)
            back = CollapsingPair._unchecked(k, got[0], got[1])
            if not verify._is_pair(back) or not canonical.is_reference(back):
                return f"{pair} reduces to {back}, not a reference pair"
            if not moves._allowable(*got):
                return f"witness {rho(got[2])} of {pair} is not allowable for {back}"
            return f"witness failed for {pair}"
        hits += ordered
    return None if hits == 1 else f"wild class of {reference} holds {hits} reference pairs"


class PairFold(verify._Fold):
    """``verify._Fold`` with the per-pair orbit walk it replaced: each
    reference pair, in bit order, walks its own orbit (:func:`orbit_failure`),
    then compat and the partition clause run on it with its split's T_R."""

    def map_references(self, mu, profile, table, splits):
        members, pieces = {}, {}
        refs = {n: (whole, mass) for split, whole, mass in splits for n in _bits(split)}
        for n in sorted(refs):
            self._reference(mu, profile, self.sign_arrays[n], *refs[n], members, pieces)

    def _reference(self, mu, profile, sgn, whole, mass, members, pieces):
        failures, k = self.failures, self.k
        if "orbit" in failures:
            return
        reference = CollapsingPair._unchecked(k, mu, sgn)
        orbit = moves._interleavings(profile.groups, sgn)
        failure = orbit_failure(reference, orbit, members)
        if failure:
            failures["orbit"] = (mu, sgn, f"k={k}: {failure}")
            return
        self.covered += len(orbit)
        self.references += 1
        self.mass += mass
        if "compat" in self.groups and "compat" not in failures:
            if domains._tc_parents(mu, sgn) != tuple(whole.values()):
                failures["compat"] = (mu, sgn, f"k={k}: T_R != T_C for {reference}")
        if "partition" in self.groups and "partition" not in failures:
            failure = verify._partition_failure(reference, whole, mass, orbit, pieces)
            if failure:
                failures["partition"] = (mu, sgn, f"k={k}: {failure}")


def unmemoised_partition_failure(reference, whole, mass, orbit):
    """The partition verdict of ``kmboard.verify._partition_failure``, with
    each piece's arrays, chains and hook count rebuilt per reference.

    Containment, branch signatures and counts, in that order per image;
    see the verify function for what each clause proves.
    """
    k = reference.k
    rho = lambda image: f"rho={','.join(map(str, image))}"  # noqa: E731
    covers = [(1 << p, x >> 1) for x, p in whole.items() if p is not None]
    branches = []  # (mu value, time labels, their bitmask) per left branch
    for g in canonical._profile(reference.mu).groups:
        if len(g) > 1:  # a one-label branch is a chain in every piece and tells none apart
            xs = [2 * i + 3 for i in g]
            branches.append((reference.mu[g[0]], xs, sum(1 << x for x in xs)))
    signatures = set()
    count = 0
    for image in orbit:
        piece = domains._wild_piece(reference.mu, image)
        above = [0] * (k + 1)  # above[x >> 1]: bitmask of the labels above t_x
        for x, p in piece.items():
            if p is not None:
                above[x >> 1] = above[p >> 1] | 1 << p
        if not all(above[x] & bit for bit, x in covers):
            return f"simplex of {rho(image)} leaves T_R of {reference}"
        signature = []
        for v, xs, m in branches:
            # a chain: its lowest label has all the others above it
            if not any((above[x >> 1] | 1 << x) & m == m for x in xs):
                return (
                    f"branch at {v} is not a chain in the simplex of {rho(image)} for {reference}"
                )
            signature += (above[x >> 1] & m for x in xs)  # fixes the chain's order
        signature = tuple(signature)
        if signature in signatures:
            return f"overlapping simplexes for {reference} at {rho(image)}"
        signatures.add(signature)
        count += _hook_count(piece)
    if count != mass:
        return (
            f"partition misses extensions for {reference}: the pieces hold {count} of {mass} orders"
        )
    return None


# -- canonical labelings through a skeleton copy and slot paths ----------------


def literal_skeleton(tree, signed=True):
    """Nested ``(sign, L, M, R)`` shape rooted at node 2; sign None unless ``signed``."""

    def shape(x):
        if x is None:
            return None
        l, m, r = tree.slots[x]
        return (tree.sign[x] if signed else None, shape(l), shape(m), shape(r))

    return shape(2)


class _ShapeNodes:
    """Mutable scratch copy of a skeleton shape, labeled one left branch at a time."""

    def __init__(self, shape):
        self.sign = []
        self.kids = []

        def build(node):
            if node is None:
                return None
            s, l, m, r = node
            i = len(self.sign)
            self.sign.append(s or "+")
            self.kids.append([None, None, None])
            self.kids[i][0] = build(l)
            self.kids[i][1] = build(m)
            self.kids[i][2] = build(r)
            return i

        self.root = build(shape)
        self.label = {}
        self._next = 2

    def label_left_branch(self, start):
        branch = []
        node = start
        while node is not None:
            self.label[node] = self._next
            self._next += 2
            branch.append(node)
            node = self.kids[node][0]
        return branch

    def to_tree(self, k):
        slots = {}
        sign = {}
        for i, lab in self.label.items():
            slots[lab] = tuple(self.label[c] if c is not None else None for c in self.kids[i])
            sign[lab] = self.sign[i]
        return SignedTree(k, slots, sign)


def literal_echelon_labeling(shape, k):
    """The upper-echelon labeled tree: always open the pending branch whose
    attachment node has the smallest label, middle before right."""
    nodes = _ShapeNodes(shape)
    nodes.label_left_branch(nodes.root)
    while True:
        pending = [
            (nodes.label[i], slot, child)
            for i in nodes.label
            for slot, child in ((1, nodes.kids[i][1]), (2, nodes.kids[i][2]))
            if child is not None and child not in nodes.label
        ]
        if not pending:
            return nodes.to_tree(k)
        nodes.label_left_branch(min(pending)[2])


def literal_tamed_labeling(shape, k):
    """The tamed labeled tree: a dequeued node opens its middle then right
    branch; each new branch enqueues its + nodes before its - nodes."""
    nodes = _ShapeNodes(shape)
    queue = []

    def enqueue(branch):
        queue.extend(i for i in branch if nodes.sign[i] == "+")
        queue.extend(i for i in branch if nodes.sign[i] == "-")

    enqueue(nodes.label_left_branch(nodes.root))
    while queue:
        i = queue.pop(0)
        for slot in (1, 2):
            child = nodes.kids[i][slot]
            if child is not None:
                enqueue(nodes.label_left_branch(child))
    return nodes.to_tree(k)


def literal_positions(tree):
    """Slot path ("" for node 2, else L/M/R steps joined by ".") -> label."""
    names = "LMR"
    out = {}
    for label in tree.labels:
        steps = []
        x = label
        while x != 2:
            p = tree.parent[x]
            steps.append(names[tree.slots[p].index(x)])
            x = p
        out[".".join(reversed(steps))] = label
    return out


def literal_reduce_to_labeling(pair, target):
    """Bubble the node at the slot path of each target label 2j, in order,
    down to 2j by adjacent KM moves, re-reading the paths after moving."""
    target_path = {lab: path for path, lab in literal_positions(target).items()}
    state = MoveState.start(pair)
    positions = literal_positions(tree_from_pair(pair))
    moves = []
    for j in range(1, pair.k + 1):
        current = positions[target_path[2 * j]]
        for m in range(current // 2 - 1, j - 1, -1):
            state = apply_signed_km(state, m)
            moves.append(m)
        if current != 2 * j:
            positions = literal_positions(tree_from_pair(state.pair))
    return state.pair, tuple(moves)


def literal_to_tamed(pair):
    target = literal_tamed_labeling(literal_skeleton(tree_from_pair(pair)), pair.k)
    return literal_reduce_to_labeling(pair, target)


def literal_to_echelon(pair):
    seed = pair.unsigned()
    target = literal_echelon_labeling(literal_skeleton(tree_from_pair(seed), False), seed.k)
    return literal_reduce_to_labeling(seed, target)


def literal_echelon_pair(pair):
    shape = literal_skeleton(tree_from_pair(pair), signed=False)
    return pair_from_tree(literal_echelon_labeling(shape, pair.k))


# -- Duhamel kernels: normal form in two passes, substitution by relabeling, stepwise oracle


def literal_expr_key(e):
    """The serialization that each node keeps as ``key``, rebuilt from
    the whole subtree on every call."""
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Conj):
        return f"c({literal_expr_key(e.body)})"
    if isinstance(e, Evolve):
        a = "_" if e.a is None else e.a
        b = "_" if e.b is None else e.b
        return f"e[{a},{b}]({literal_expr_key(e.body)})"
    return "p(" + ",".join(literal_expr_key(f) for f in e.factors) + ")"


def two_pass_normalize(e):
    """Normalize the body first, then push a conjugation through the result."""
    if isinstance(e, Atom):
        return e
    if isinstance(e, Conj):
        return _conj_normalized(two_pass_normalize(e.body))
    if isinstance(e, Evolve):
        return _merge_evolve(e.a, e.b, two_pass_normalize(e.body))
    factors = []
    for f in e.factors:
        nf = two_pass_normalize(f)
        if isinstance(nf, Prod):
            factors.extend(nf.factors)
        else:
            factors.append(nf)
    if len(factors) == 1:
        return factors[0]
    return Prod(tuple(sorted(factors, key=literal_expr_key)))


def _conj_normalized(e):
    """Conjugate of an already-normalized expression, pushed to the atoms."""
    if isinstance(e, Atom):
        return Conj(e)
    if isinstance(e, Conj):
        return e.body
    if isinstance(e, Evolve):
        return _merge_evolve(e.b, e.a, _conj_normalized(e.body))
    return Prod(tuple(sorted((_conj_normalized(f) for f in e.factors), key=literal_expr_key)))


def _map_labels(e, rename):
    if isinstance(e, Atom):
        return e
    if isinstance(e, Conj):
        return conj(_map_labels(e.body, rename))
    if isinstance(e, Evolve):
        return evolve(rename(e.a), rename(e.b), _map_labels(e.body, rename))
    return prod(tuple(_map_labels(f, rename) for f in e.factors))


def literal_substitute_times(e, sigma):
    """Relabel t_a -> t_{sigma(a-1)+1} (t_1 and absent slots fixed), then
    normalize in two passes."""

    def rename(a):
        if a is None or a == 1:
            return a
        return sigma.of(a - 1) + 1

    return two_pass_normalize(_map_labels(e, rename))


def stepwise_expand_oracle(pair, trace=False):
    """``duhamel.expand_oracle`` by the definition: after each collapse
    the free evolution from t_{2j+1} back to t_{2j-1} wraps every live
    kernel, so a call builds O(k^2) propagators."""
    k = pair.k
    coords = dict.fromkeys(range(1, 2 * k + 2), (Atom(), conj(Atom())))
    snapshots = []
    for j in range(k, 0, -1):
        s = pair.mu[j - 1]
        removed = []
        for x in (2 * j, 2 * j + 1):
            removed.extend(coords.pop(x))
        e, f = coords[s]
        if pair.sgn[j - 1] == "+":
            coords[s] = (prod([e] + removed), f)
        else:
            coords[s] = (e, conj(prod([conj(f)] + [conj(r) for r in removed])))
        hi, lo = 2 * j - 1, 2 * j + 1
        coords = {i: (evolve(hi, lo, e), evolve(lo, hi, f)) for i, (e, f) in coords.items()}
        if trace:
            snapshots.append((j, dict(coords)))
    result = coords[1]
    return (result, snapshots) if trace else result

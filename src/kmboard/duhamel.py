"""Duhamel trees, symbolic kernel expressions, and the estimate schedule.

The quinary Duhamel tree of a pair drives everything here: its edges
give the compatible time domain, its leaf pattern the marking and the
estimate bookkeeping, and one pass down its labels (children before
parents) the symbolic kernel of the expansion.  Kernels are
expressions over one profile atom ``phi``, complex conjugation, free
propagators, and commutative products.

``Evolve(a, b, e)`` stands for ``exp(i(t_a - t_b) Lap) e``; either
endpoint may be absent while a term is under construction (``U_{+a}``
or ``U_{-b}``), and composition merges matching endpoints, so absent
slots never survive to a finished kernel.  Conjugating a propagator
flips its orientation: ``conj(U_{a,b} e) = U_{b,a} conj(e)``.

Three routes compute the same kernel.  Two walk the tree in one pass
down its labels: :func:`expand_display` keeps each product in child-slot
order for the text rendering, and :func:`expand` builds the normal form
directly, conjugations at the atoms and products sorted.  The third,
:func:`expand_oracle`, replays the operator product coordinate by
coordinate.  ``verify`` and the benchmark compare :func:`expand` with
the normalized oracle; the tests also compare it with the normalized
display pass.  The replay applies the free flow lazily: a coordinate is
brought forward only when a collapse reads it, by one propagator that
telescopes every step since its last change, so a pair costs O(k)
propagators; ``tests/oracles.stepwise_expand_oracle``, which wraps every
live coordinate at each step, is its slow route.  All routes leave the
profile fixed at the final time.  Each node keeps its serialization
``key`` (equal keys <=> equal expressions), so sorting the factors of
nested products serializes no subtree twice.  :func:`expand` and
:func:`normalize` write it as they build; other nodes, on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional, Union

from .pairs import CollapsingPair

# -- symbolic expressions ----------------------------------------------------


class _cached_key:
    """``functools.cached_property`` without the lock that Python 3.11
    takes on each first read: the key is stored in the instance dict
    under the same name, so later reads never reach this descriptor.
    :func:`expand` and :func:`normalize` store it there as they build,
    by the same formula.  Nodes are immutable, so two threads racing on
    one node compute the same string."""

    def __init__(self, compute):
        self.compute = compute

    def __get__(self, node, owner=None):
        if node is None:
            return self
        key = node.__dict__["key"] = self.compute(node)
        return key


@dataclass(frozen=True)
class Atom:
    name: str = "phi"

    key = _cached_key(attrgetter("name"))


@dataclass(frozen=True)
class Conj:
    body: "SymExpr"

    key = _cached_key(lambda node: _conj_key(node.body.key))


@dataclass(frozen=True)
class Evolve:
    a: Optional[int]  # positive-phase time label
    b: Optional[int]  # negative-phase time label
    body: "SymExpr"

    key = _cached_key(lambda node: _evolve_key(node.a, node.b, node.body.key))


@dataclass(frozen=True)
class Prod:
    factors: tuple

    key = _cached_key(lambda node: _prod_key(f.key for f in node.factors))


SymExpr = Union[Atom, Conj, Evolve, Prod]

_KEY = attrgetter("key")  # products sort their factors by it


def _conj_key(body_key: str) -> str:
    return f"c({body_key})"


def _evolve_key(a: Optional[int], b: Optional[int], body_key: str) -> str:
    return f"e[{'_' if a is None else str(a)},{'_' if b is None else str(b)}]({body_key})"


def _prod_key(factor_keys) -> str:
    return f"p({','.join(factor_keys)})"


# Every Conj, Evolve and Prod this module builds comes from these constructors,
# which write the instance dict directly (the frozen dataclass __init__ calls
# object.__setattr__ per field).  No node class has subclasses, so the kernels
# dispatch on exact type.
_new = object.__new__


def _new_conj(body, key=None):
    node = _new(Conj)
    node.__dict__["body"] = body
    if key is not None:
        node.__dict__["key"] = key
    return node


def _new_evolve(a, b, body):
    node = _new(Evolve)
    d = node.__dict__
    d["a"] = a
    d["b"] = b
    d["body"] = body
    return node


def _new_prod(factors, key=None):
    node = _new(Prod)
    node.__dict__["factors"] = factors
    if key is not None:
        node.__dict__["key"] = key
    return node


def conj(e: SymExpr) -> SymExpr:
    if type(e) is Conj:
        return e.__dict__["body"]
    return _new_conj(e)


def _merge_evolve(
    a: Optional[int], b: Optional[int], body: SymExpr, built: Optional[Evolve] = None
) -> SymExpr:
    """Endpoint merging only; never moves conjugations.

    ``built``, if given, is ``Evolve(a, b, body)`` itself, handed back
    when nothing merges or collapses.  The propagator is keyed when the
    body that ends up under it is.
    """
    inner = body
    while type(body) is Evolve:
        d = body.__dict__
        if d["a"] == b:
            b = d["b"]
        elif d["b"] == a:
            a = d["a"]
        else:
            break
        body = d["body"]
    if a == b:
        return body
    node = built if built is not None and body is inner else _new_evolve(a, b, body)
    key = body.__dict__.get("key")
    if key is not None:
        node.__dict__["key"] = _evolve_key(a, b, key)
    return node


def evolve(a: Optional[int], b: Optional[int], e: SymExpr) -> SymExpr:
    """Propagator application with eager endpoint merging.

    Matching endpoints telescope (``U_{a,b} U_{b,c} = U_{a,c}``, absent
    slots included); a conjugated body flips the orientation outward so
    the merge still happens underneath.
    """
    if type(e) is Conj:
        return conj(evolve(b, a, e.__dict__["body"]))
    return _merge_evolve(a, b, e)


def prod(factors) -> SymExpr:
    flat: list[SymExpr] = []
    for f in factors:
        if type(f) is Prod:
            flat.extend(f.__dict__["factors"])
        else:
            flat.append(f)
    if len(flat) == 1:
        return flat[0]
    return _new_prod(tuple(flat))


def normalize(e: SymExpr) -> SymExpr:
    """Canonical form: conjugation at atoms, merged propagators, sorted products."""
    return _normal(e, False)


def _normal(e: SymExpr, flip: bool) -> SymExpr:
    """Normal form of ``e``, or of ``conj(e)`` when ``flip`` is set, keyed.

    The parity rides down: ``conj(U_{a,b} e) = U_{b,a} conj(e)`` and
    conjugation distributes over products, so it lands on the atoms.
    An unflipped propagator whose body comes back unchanged and that
    merges with nothing is returned as the same object.
    """
    t = type(e)
    if t is Evolve:
        d = e.__dict__
        body = _normal(d["body"], flip)
        if flip:
            return _merge_evolve(d["b"], d["a"], body)
        return _merge_evolve(d["a"], d["b"], body, e if body is d["body"] else None)
    if t is Atom:
        key = e.key
        return _new_conj(e, _conj_key(key)) if flip else e
    if t is Conj:
        return _normal(e.__dict__["body"], not flip)
    factors = []
    for f in e.__dict__["factors"]:
        nf = _normal(f, flip)
        if type(nf) is Prod:
            factors.extend(nf.__dict__["factors"])
        else:
            factors.append(nf)
    if len(factors) == 1:
        return factors[0]
    factors.sort(key=_KEY)
    return _new_prod(tuple(factors), _prod_key(map(_KEY, factors)))


# -- Duhamel tree ------------------------------------------------------------


@dataclass(frozen=True)
class FLeaf:
    """Leaf marker F_{i,sign}: a bare (conjugated) profile factor."""

    index: int
    sign: str


@dataclass(frozen=True)
class DTree:
    """Quinary Duhamel tree.

    ``root`` holds the two children of the top node (left, right);
    ``kids[2j]`` the five ordered child slots of coupling j.  Slots
    hold even labels or :class:`FLeaf`.  ``parent`` maps an even node
    to its parent (0 for the top).  ``marks`` is filled by
    :func:`mark_dtree` with subsets of {"phi", "R"}.
    """

    k: int
    sign: tuple
    root: tuple
    kids: dict
    parent: dict
    marks: dict = field(default_factory=dict)

    def has_f_child(self, x: int) -> bool:
        return any(isinstance(c, FLeaf) for c in self.kids[x])

    def ancestors(self, x: int) -> list[int]:
        """Proper ancestors of node x, bottom up, top node excluded."""
        out = []
        p = self.parent[x]
        while p != 0:
            out.append(p)
            p = self.parent[p]
        return out

    def to_dot(self, marked: bool = False) -> str:
        """Preorder DOT text, drawn from an explicit stack so any depth survives."""
        lines = ["digraph dtree {", '  d0 [label="D(0)"];']
        stack = [(c, "d0") for c in reversed(self.root)]
        drawn = 0  # nodes and leaves drawn so far; numbers the leaves
        while stack:
            x, up = stack.pop()
            if isinstance(x, FLeaf):
                lines.append(f'  f{drawn} [label="F({x.index},{x.sign})" shape=none];')
                lines.append(f"  {up} -> f{drawn};")
            else:
                tag = f"D({x})"
                if marked and self.marks.get(x):
                    tag += "[" + ",".join(sorted(self.marks[x])) + "]"
                lines.append(f'  d{x} [label="{tag}"];')
                lines.append(f"  {up} -> d{x};")
                stack.extend((c, f"d{x}") for c in reversed(self.kids[x]))
            drawn += 1
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        def node(x):
            if isinstance(x, FLeaf):
                return {"F": [x.index, x.sign]}
            out = {"node": x, "sign": self.sign[(x - 2) // 2]}
            if self.marks.get(x):
                out["marks"] = sorted(self.marks[x])
            out["children"] = [node(c) for c in self.kids[x]]
            return out

        return {"k": self.k, "root": [node(c) for c in self.root]}


def _slot_pass(mu, sgn):
    """The minimal-index slot rule in one backward pass over j = k..1.

    Coupling j's slots seek (mu(2j), sgn(2j)), (2j, +), (2j, -),
    (2j+1, +) and (2j+1, -); each takes the least label 2m with m > j
    whose (mu(2m), sgn(2m)) is the sought key.  A key (v, s) is coded as
    the int 2v + (s == "-").  ``first`` maps each code to the least
    such label seen so far, so coupling j fills its slots before
    recording its own.  Returns the two top slots, each coupling's five
    slots (in label order), and each coupling's parent label (0 for the
    top node); a missed slot holds ~code of its key, a negative int.
    """
    k = len(mu)
    first: dict = {}
    get, pop = first.get, first.pop
    kids = [()] * k
    up = [0] * k  # one slot finds each coupling; those no coupling's slot finds sit at the top
    for j in range(k, 0, -1):
        x = 2 * j
        own = 2 * mu[j - 1] + (sgn[j - 1] == "-")
        b = 2 * x  # the code of (2j, +)
        # values 2j and 2j+1 are sought by coupling j alone, so their codes leave
        slots = (
            get(own, ~own),
            pop(b, ~b),
            pop(b + 1, ~b - 1),
            pop(b + 2, ~b - 2),
            pop(b + 3, ~b - 3),
        )
        for c in slots:
            if c > 0:
                up[(c >> 1) - 1] = x
        kids[j - 1] = slots
        first[own] = x
    return (get(2, ~2), get(3, ~3)), kids, up


#: Every leaf built so far, by ~code of its key; leaves compare by value
#: and never change, so all trees share one leaf per key.
_LEAVES: dict = {}


def build_dtree(pair: CollapsingPair) -> DTree:
    """Place every coupling by the minimal-index slot rules, in O(k)."""
    root, kids, up = _slot_pass(pair.mu, pair.sgn)
    leaves = _LEAVES

    def fill(slots):
        return tuple(
            c
            if c > 0
            else leaves.get(c) or leaves.setdefault(c, FLeaf(~c >> 1, "-" if ~c & 1 else "+"))
            for c in slots
        )

    return DTree(
        pair.k,
        pair.sgn,
        fill(root),
        {2 * j: fill(slots) for j, slots in enumerate(kids, 1)},
        {2 * j: p for j, p in enumerate(up, 1)},
    )


def mark_dtree(dtree: DTree) -> DTree:
    """R on the final coupling and its ancestor chain; phi where an F child sits."""
    marks: dict[int, set] = {2 * dtree.k: {"R"}}
    for x in dtree.ancestors(2 * dtree.k):
        marks.setdefault(x, set()).add("R")
    for l in range(1, dtree.k):
        if dtree.has_f_child(2 * l):
            marks.setdefault(2 * l, set()).add("phi")
    return replace(dtree, marks={x: frozenset(s) for x, s in marks.items()})


# -- estimate schedule -------------------------------------------------------

TAG_OF_MARKS = {
    frozenset({"phi", "R"}): "phi-R",
    frozenset({"phi"}): "phi",
    frozenset({"R"}): "R",
    frozenset(): "plain",
}

TAG_DESCRIPTIONS = {
    "phi-R": "small factor, rough slot",
    "phi": "small factor",
    "R": "rough slot",
    "plain": "full regularity",
}


@dataclass(frozen=True)
class EstimateSchedule:
    """Which estimate each coupling uses, plus the exponent bookkeeping.

    ``small_factor_power`` counts the decay-factor applications (one
    per phi-marked coupling below k); ``h_norm_power`` is the number of
    profile factors landing in plain Sobolev norms, the terminal
    ``|phi|^4 phi`` handled by one Sobolev step.
    """

    k: int
    cases: tuple  # ((l, tag) for l = 1..k-1)
    terminal: str
    small_factor_power: int
    h_norm_power: int
    constant_power: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "cases": [
                {"coupling": l, "tag": tag, "estimate": TAG_DESCRIPTIONS[tag]}
                for l, tag in self.cases
            ],
            "terminal": self.terminal,
            "small_factor_power": self.small_factor_power,
            "h_norm_power": self.h_norm_power,
            "constant_power": self.constant_power,
        }


def estimate_schedule(dtree: DTree) -> EstimateSchedule:
    """Read the schedule off a marked tree (marking it if needed)."""
    if not dtree.marks:
        dtree = mark_dtree(dtree)
    cases = tuple(
        (l, TAG_OF_MARKS[dtree.marks.get(2 * l, frozenset())]) for l in range(1, dtree.k)
    )
    small = sum(1 for _, tag in cases if tag in ("phi-R", "phi"))
    total_profiles = 4 * dtree.k + 2
    leaf = "|phi|^4phi" if dtree.sign[dtree.k - 1] == "+" else "conj(|phi|^4phi)"
    return EstimateSchedule(
        k=dtree.k,
        cases=cases,
        terminal=f"sobolev step on the roughest leaf {leaf}",
        small_factor_power=small,
        h_norm_power=total_profiles - small,
        constant_power=dtree.k,
    )


# -- expansion: one pass down the labels ------------------------------------


def expand_display(pair: CollapsingPair) -> tuple[SymExpr, SymExpr]:
    """Kernel pair with product factors kept in child-slot order.

    Same rewrites as :func:`normalize` except product sorting, so the
    text rendering lines up with the worked expansions.  Every slot
    holds a larger label than its coupling, so one pass over the labels
    2k, 2k-2, ..., 2 builds each node's kernel after its children's,
    at any depth.  A leaf's kernel depends only on its sign: the two
    are built once and shared by every leaf slot.
    """
    dtree = build_dtree(pair)
    leaf = evolve(None, 2 * pair.k + 1, Atom())
    leaf_of = {"+": leaf, "-": conj(leaf)}
    kernel = {}

    def of(child):
        return leaf_of[child.sign] if isinstance(child, FLeaf) else kernel[child]

    for x in range(2 * pair.k, 0, -2):
        t = x + 1
        c = [of(child) for child in dtree.kids[x]]
        if dtree.sign[(x - 2) // 2] == "+":
            factors = [
                evolve(t, None, c[0]),
                evolve(t, None, c[1]),
                conj(evolve(t, None, conj(c[2]))),
                evolve(t, None, c[3]),
                conj(evolve(t, None, conj(c[4]))),
            ]
            kernel[x] = evolve(None, t, prod(factors))
        else:
            factors = [
                evolve(t, None, conj(c[0])),
                conj(evolve(t, None, c[1])),
                evolve(t, None, conj(c[2])),
                conj(evolve(t, None, c[3])),
                evolve(t, None, conj(c[4])),
            ]
            kernel[x] = conj(evolve(None, t, prod(factors)))
    left = evolve(1, None, of(dtree.root[0]))
    right = conj(evolve(1, None, conj(of(dtree.root[1]))))
    return left, right


#: Per coupling sign: whether each of its five slots takes ``U_{t,_}``
#: (True) or ``U_{_,t}`` (False), t the coupling's time label, then the
#: same for the propagator over its product.  These are the display
#: pass's rewrites with every conjugation driven to the atoms: a "-"
#: coupling's kernel is an outer conjugate, which flips its own
#: propagator and each slot's.
_ORIENT = {
    "+": ((True, True, False, True, False), False),
    "-": ((False, True, False, True, False), True),
}


def expand(pair: CollapsingPair) -> tuple[SymExpr, SymExpr]:
    """Normalized kernel pair (x_1 factor, x_1' factor) of the expansion.

    Equals ``normalize`` of :func:`expand_display`, but builds the
    normal form in the same one pass over the labels 2k, 2k-2, ..., 2:
    with the parity driven down, every child is read unconjugated, so
    each slot is one endpoint merge of the child's normal kernel, and
    the coupling's product is its five slots sorted by ``key``.  A slot
    never merges to a product (only a leaf's propagator can cancel, at
    coupling k), so no product needs flattening.  Builds no display
    form and normalizes nothing afterwards; no step recurses on depth.
    """
    root, kids, _ = _slot_pass(pair.mu, pair.sgn)
    final = 2 * pair.k + 1
    phi = Atom()
    cphi = _new_conj(phi, _conj_key(phi.key))  # reading phi's key keeps it: both leaves are keyed
    leaves = (_merge_evolve(None, final, phi), _merge_evolve(final, None, cphi))  # by ~code & 1
    kernel = [None] * (pair.k + 1)  # kernel[j]: coupling j's, once its pass is done

    def of(code):
        return kernel[code >> 1] if code > 0 else leaves[~code & 1]

    for j in range(pair.k, 0, -1):
        t = 2 * j + 1
        forward, own = _ORIENT[pair.sgn[j - 1]]
        factors = [
            _merge_evolve(t, None, of(code)) if fwd else _merge_evolve(None, t, of(code))
            for code, fwd in zip(kids[j - 1], forward)
        ]
        factors.sort(key=_KEY)
        body = _new_prod(tuple(factors), _prod_key(map(_KEY, factors)))
        kernel[j] = _merge_evolve(t, None, body) if own else _merge_evolve(None, t, body)
    return _merge_evolve(1, None, of(root[0])), _merge_evolve(None, 1, of(root[1]))


# -- expansion: operator-evolution oracle ------------------------------------


def expand_oracle(pair: CollapsingPair, trace: bool = False):
    """Replay the operator product on a product state, right to left.

    Keeps one (unprimed, primed) kernel per live coordinate, with the
    label ``since`` of the time it stands at (2k+1 at the start).  The
    collapse at coupling j brings its three coordinates 2j, 2j+1 and
    mu(2j) to t_{2j+1}, each by one propagator that telescopes the free
    flow since its last change (``U_{a,b} U_{b,c} = U_{a,c}``), removes
    2j and 2j+1, and multiplies their four factors onto side mu(2j).
    The other coordinates wait, so a call builds O(k) propagators.
    Returns the coordinate-1 pair at t_1, plus per-coupling snapshots
    with every live kernel at t_{2j-1} when ``trace`` is set (O(k) per
    coupling).  ``tests/oracles.stepwise_expand_oracle`` is the slow
    route that wraps every live kernel after each collapse; both give
    the same expressions.
    """
    k = pair.k
    coords = dict.fromkeys(range(1, 2 * k + 2), (Atom(), conj(Atom()), 2 * k + 1))
    snapshots = []
    for j in range(k, 0, -1):
        s = pair.mu[j - 1]
        now = 2 * j + 1
        removed = []
        for x in (2 * j, 2 * j + 1):
            removed += _brought(now, *coords.pop(x))
        e, f = _brought(now, *coords[s])
        if pair.sgn[j - 1] == "+":
            coords[s] = (prod([e] + removed), f, now)
        else:
            # keep the primed side an outer conjugate, as the traces print it
            coords[s] = (e, conj(prod([conj(f)] + [conj(r) for r in removed])), now)
        if trace:
            snapshots.append((j, {i: _brought(2 * j - 1, *c) for i, c in coords.items()}))
    result = _brought(1, *coords[1])
    return (result, snapshots) if trace else result


def _brought(t: int, e: SymExpr, f: SymExpr, since: int) -> tuple[SymExpr, SymExpr]:
    """A coordinate's kernels at t_since, brought to t_t by one propagator each."""
    return evolve(t, since, e), evolve(since, t, f)


# -- text rendering ----------------------------------------------------------


def _render_group(base: SymExpr, plain: int, conjd: int) -> str:
    paired = min(plain, conjd)
    text = render_expr(base)  # once: a repeat here multiplies down every nested product
    out = ""
    if paired:
        out += f"|{text}|^{2 * paired}"
    out += text * (plain - paired)
    out += f"conj({text})" * (conjd - paired)
    return out


def _product_groups(factors) -> list[str]:
    groups: dict[str, list] = {}  # base key -> [base, plain count, conjugated count]
    for f in factors:
        conjd = isinstance(f, Conj)
        base = f.body if conjd else f
        groups.setdefault(base.key, [base, 0, 0])[1 + conjd] += 1
    return [_render_group(*group) for group in groups.values()]


def render_expr(e: SymExpr) -> str:
    """Display text: U_{a,b} propagator prefixes, conj(...), |.|^2m powers."""
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Conj):
        return f"conj({render_expr(e.body)})"
    if isinstance(e, Evolve):
        if e.a is None:
            head = f"U_{{-{e.b}}}"
        elif e.b is None:
            head = f"U_{{{e.a}}}"
        else:
            head = f"U_{{{e.a},{e.b}}}"
        if isinstance(e.body, Prod):
            groups = _product_groups(e.body.factors)
            if len(groups) == 1:
                return f"{head}({groups[0]})"
            return head + "[" + "".join(f"({g})" for g in groups) + "]"
        if isinstance(e.body, Atom):
            return head + render_expr(e.body)
        return f"{head}({render_expr(e.body)})"
    groups = _product_groups(e.factors)
    if len(groups) == 1:
        return groups[0]
    return "".join(f"({g})" for g in groups)


def expand_text(pair: CollapsingPair) -> str:
    """The two rendered factors, x_1 side then x_1' side."""
    left, right = expand_display(pair)
    return f"{render_expr(left)}\n{render_expr(right)}\n"


# -- integration-annotated expansion -----------------------------------------


@dataclass(frozen=True)
class IntegratedExpansion:
    """Expansion with the compatible per-node integral bounds attached.

    ``bounds[2l] = (lower, upper)`` for couplings l < k: the time
    t_{2l+1} runs from t_lower (0 when lower == 0) to t_upper; the
    final time t_{2k+1} runs on [0, t_1] outermost.  Lower bounds are
    the final time exactly on the ancestor chain of the last coupling.
    """

    pair: CollapsingPair
    bounds: dict
    outer: tuple

    def render_text(self) -> str:
        """Integrals outermost first, by depth then label, over the expansion.

        A coupling's depth is read off its upper bound: t_{p+1} names
        its parent p, and t_1 the top node.  Parents carry smaller
        labels than their children, so one ascending pass finds all.
        """
        depth = {}
        for x in sorted(self.bounds):
            upper = self.bounds[x][1]
            depth[x] = 1 if upper == 1 else depth[upper - 1] + 1
        var, lo, hi = self.outer
        pieces = [f"Int[t{var}:0..t{hi}]"]
        for x in sorted(self.bounds, key=lambda x: (depth[x], x)):
            lower, upper = self.bounds[x]
            lo_txt = f"t{lower}" if lower else "0"
            pieces.append(f"Int[t{x + 1}:{lo_txt}..t{upper}]")
        return " ".join(pieces) + "\n" + expand_text(self.pair)


def integrated_expand(pair: CollapsingPair) -> IntegratedExpansion:
    """Attach the compatible integral bounds to every coupling.

    The parents come straight from :func:`_slot_pass`, so no Duhamel
    tree is built here; the chain is the last coupling's proper
    ancestors, the top node excluded.
    """
    up = _slot_pass(pair.mu, pair.sgn)[2]  # up[j-1]: the parent label of coupling j
    final = 2 * pair.k + 1
    chain = set()
    p = up[-1]
    while p:
        chain.add(p)
        p = up[(p >> 1) - 1]
    bounds = {}
    for l in range(1, pair.k):
        x, p = 2 * l, up[l - 1]
        bounds[x] = (final if x in chain else 0, 1 if p == 0 else p + 1)
    return IntegratedExpansion(pair, bounds, (final, 0, 1))

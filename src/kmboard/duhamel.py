"""Duhamel trees, symbolic kernel expressions, and the estimate schedule.

The quinary Duhamel tree of a pair drives everything here: its edges
give the compatible time domain, its leaf pattern the marking and the
estimate bookkeeping, and a leaf-to-root recursion the symbolic kernel
of the expansion.  Kernels are expressions over one profile atom
``phi``, complex conjugation, free propagators, and commutative
products.

``Evolve(a, b, e)`` stands for ``exp(i(t_a - t_b) Lap) e``; either
endpoint may be absent while a term is under construction (``U_{+a}``
or ``U_{-b}``), and composition merges matching endpoints, so absent
slots never survive to a finished kernel.  Conjugating a propagator
flips its orientation: ``conj(U_{a,b} e) = U_{b,a} conj(e)``.

Two independent routes compute the same kernel: :func:`expand` runs the
tree recursion, :func:`expand_oracle` replays the operator product
coordinate by coordinate.  Both leave the profile fixed at the final
time; :func:`as_flow` rebases a kernel onto a datum that free-evolves
from time zero, which is the reading under which the wild-move
relabeling identity holds pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .pairs import CollapsingPair, TimePermutation

# -- symbolic expressions ----------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str = "phi"


@dataclass(frozen=True)
class Conj:
    body: "SymExpr"


@dataclass(frozen=True)
class Evolve:
    a: Optional[int]  # positive-phase time label
    b: Optional[int]  # negative-phase time label
    body: "SymExpr"


@dataclass(frozen=True)
class Prod:
    factors: tuple


SymExpr = Union[Atom, Conj, Evolve, Prod]


def conj(e: SymExpr) -> SymExpr:
    if isinstance(e, Conj):
        return e.body
    return Conj(e)


def _merge_evolve(a: Optional[int], b: Optional[int], body: SymExpr) -> SymExpr:
    """Endpoint merging only; never moves conjugations."""
    while isinstance(body, Evolve) and (body.a == b or body.b == a):
        if body.a == b:
            b = body.b
        else:
            a = body.a
        body = body.body
    if a == b:
        return body
    return Evolve(a, b, body)


def evolve(a: Optional[int], b: Optional[int], e: SymExpr) -> SymExpr:
    """Propagator application with eager endpoint merging.

    Matching endpoints telescope (``U_{a,b} U_{b,c} = U_{a,c}``, absent
    slots included); a conjugated body flips the orientation outward so
    the merge still happens underneath.
    """
    if isinstance(e, Conj):
        return conj(evolve(b, a, e.body))
    return _merge_evolve(a, b, e)


def prod(factors) -> SymExpr:
    flat: list[SymExpr] = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def expr_key(e: SymExpr) -> str:
    """Deterministic serialization; equal keys <=> equal expressions."""
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Conj):
        return f"c({expr_key(e.body)})"
    if isinstance(e, Evolve):
        a = "_" if e.a is None else e.a
        b = "_" if e.b is None else e.b
        return f"e[{a},{b}]({expr_key(e.body)})"
    return "p(" + ",".join(expr_key(f) for f in e.factors) + ")"


def normalize(e: SymExpr) -> SymExpr:
    """Canonical form: conjugation at atoms, merged propagators, sorted products."""
    if isinstance(e, Atom):
        return e
    if isinstance(e, Conj):
        return _conj_normalized(normalize(e.body))
    if isinstance(e, Evolve):
        return _merge_evolve(e.a, e.b, normalize(e.body))
    factors = []
    for f in e.factors:
        nf = normalize(f)
        if isinstance(nf, Prod):
            factors.extend(nf.factors)
        else:
            factors.append(nf)
    if len(factors) == 1:
        return factors[0]
    return Prod(tuple(sorted(factors, key=expr_key)))


def _conj_normalized(e: SymExpr) -> SymExpr:
    """Conjugate of an already-normalized expression, pushed to the atoms."""
    if isinstance(e, Atom):
        return Conj(e)
    if isinstance(e, Conj):
        return e.body
    if isinstance(e, Evolve):
        return _merge_evolve(e.b, e.a, _conj_normalized(e.body))
    return Prod(tuple(sorted((_conj_normalized(f) for f in e.factors), key=expr_key)))


def _map_labels(e: SymExpr, rename) -> SymExpr:
    if isinstance(e, Atom):
        return e
    if isinstance(e, Conj):
        return conj(_map_labels(e.body, rename))
    if isinstance(e, Evolve):
        return evolve(rename(e.a), rename(e.b), _map_labels(e.body, rename))
    return prod(tuple(_map_labels(f, rename) for f in e.factors))


def substitute_times(e: SymExpr, sigma: TimePermutation) -> SymExpr:
    """Relabel times by t_a -> t_{sigma(a-1)+1} (t_1 fixed), then normalize.

    All odd labels move, the final time 2k+1 included: the relabeling
    identities below compare kernels whose datum slot moves with sigma.
    """

    def rename(a):
        if a is None or a == 1:
            return a
        return sigma.of(a - 1) + 1

    return normalize(_map_labels(e, rename))


def substitute_atom(e: SymExpr, replacement: SymExpr) -> SymExpr:
    if isinstance(e, Atom):
        return replacement
    if isinstance(e, Conj):
        return conj(substitute_atom(e.body, replacement))
    if isinstance(e, Evolve):
        return evolve(e.a, e.b, substitute_atom(e.body, replacement))
    return prod(tuple(substitute_atom(f, replacement) for f in e.factors))


def as_flow(e: SymExpr, k: int) -> SymExpr:
    """Rebase the profile onto a datum free-evolving from time zero.

    Substitutes ``phi = U_{2k+1} phi0``; propagator chains that used to
    stop at the final time then telescope through it.
    """
    return substitute_atom(e, Evolve(2 * k + 1, None, Atom()))


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

    def children_of(self, x: int) -> tuple:
        return self.root if x == 0 else self.kids[x]

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

    def is_offspring(self, x: int, of: int) -> bool:
        return of in self.ancestors(x)

    def to_dot(self, marked: bool = False) -> str:
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
            if marked and self.marks.get(x):
                tag += "[" + ",".join(sorted(self.marks[x])) + "]"
            names[x] = f"d{x}"
            order.append(names[x])
            lines.append(f'  d{x} [label="{tag}"];')
            lines.append(f"  {parent_name} -> d{x};")
            for c in self.kids[x]:
                visit(c, names[x])

        for child in self.root:
            visit(child, "d0")
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


def build_dtree(pair: CollapsingPair) -> DTree:
    """Place every coupling by the minimal-index slot rules."""
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


def mark_dtree(dtree: DTree) -> DTree:
    """R on the final coupling and its ancestor chain; phi where an F child sits."""
    marks: dict[int, set] = {2 * dtree.k: {"R"}}
    for x in dtree.ancestors(2 * dtree.k):
        marks.setdefault(x, set()).add("R")
    for l in range(1, dtree.k):
        if dtree.has_f_child(2 * l):
            marks.setdefault(2 * l, set()).add("phi")
    return DTree(
        dtree.k,
        dtree.sign,
        dtree.root,
        dtree.kids,
        dtree.parent,
        {x: frozenset(s) for x, s in marks.items()},
    )


def unclogged_count(dtree: DTree) -> int:
    """Couplings l < k whose node has an F child (the decay sources)."""
    return sum(1 for l in range(1, dtree.k) if dtree.has_f_child(2 * l))


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


# -- expansion: tree recursion -----------------------------------------------


def _leaf_expr(leaf: FLeaf, final: int) -> SymExpr:
    base = evolve(None, final, Atom())
    return conj(base) if leaf.sign == "-" else base


def _node_expr(dtree: DTree, x, final: int) -> SymExpr:
    if isinstance(x, FLeaf):
        return _leaf_expr(x, final)
    t = x + 1
    c = [_node_expr(dtree, child, final) for child in dtree.kids[x]]
    if dtree.sign[(x - 2) // 2] == "+":
        factors = [
            evolve(t, None, c[0]),
            evolve(t, None, c[1]),
            conj(evolve(t, None, conj(c[2]))),
            evolve(t, None, c[3]),
            conj(evolve(t, None, conj(c[4]))),
        ]
        return evolve(None, t, prod(factors))
    factors = [
        evolve(t, None, conj(c[0])),
        conj(evolve(t, None, c[1])),
        evolve(t, None, conj(c[2])),
        conj(evolve(t, None, c[3])),
        evolve(t, None, conj(c[4])),
    ]
    return conj(evolve(None, t, prod(factors)))


def expand_display(pair: CollapsingPair) -> tuple[SymExpr, SymExpr]:
    """Kernel pair with product factors kept in child-slot order.

    Same rewrites as :func:`normalize` except product sorting, so the
    text rendering lines up with the worked expansions.
    """
    dtree = build_dtree(pair)
    final = 2 * pair.k + 1
    left = evolve(1, None, _node_expr(dtree, dtree.root[0], final))
    right = conj(evolve(1, None, conj(_node_expr(dtree, dtree.root[1], final))))
    return left, right


def expand(pair: CollapsingPair) -> tuple[SymExpr, SymExpr]:
    """Normalized kernel pair (x_1 factor, x_1' factor) of the expansion."""
    left, right = expand_display(pair)
    return normalize(left), normalize(right)


# -- expansion: operator-evolution oracle ------------------------------------


def expand_oracle(pair: CollapsingPair, trace: bool = False):
    """Replay the operator product on a product state, right to left.

    Keeps one (unprimed, primed) kernel per live coordinate; the
    collapse at coupling j removes coordinates 2j, 2j+1 and multiplies
    their four factors onto side mu(2j); the free evolution between
    collapses wraps every live kernel.  Returns the coordinate-1 pair,
    plus per-coupling snapshots when ``trace`` is set.
    """
    k = pair.k
    coords = {i: (Atom(), conj(Atom())) for i in range(1, 2 * k + 2)}
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
            # keep the primed side an outer conjugate, as the traces print it
            coords[s] = (e, conj(prod([conj(f)] + [conj(r) for r in removed])))
        hi, lo = 2 * j - 1, 2 * j + 1
        coords = {
            i: (evolve(hi, lo, e), evolve(lo, hi, f)) for i, (e, f) in coords.items()
        }
        if trace:
            snapshots.append((j, dict(coords)))
    result = coords[1]
    return (result, snapshots) if trace else result


# -- text rendering ----------------------------------------------------------


def _render_group(base: SymExpr, plain: int, conjd: int) -> str:
    paired = min(plain, conjd)
    out = ""
    if paired:
        out += f"|{render_expr(base)}|^{2 * paired}"
    out += render_expr(base) * (plain - paired)
    out += f"conj({render_expr(base)})" * (conjd - paired)
    return out


def _product_groups(factors) -> list[str]:
    order: list[SymExpr] = []
    plain: dict[str, int] = {}
    conjd: dict[str, int] = {}
    for f in factors:
        base = f.body if isinstance(f, Conj) else f
        key = expr_key(base)
        if key not in plain and key not in conjd:
            order.append(base)
        bucket = conjd if isinstance(f, Conj) else plain
        bucket[key] = bucket.get(key, 0) + 1
    return [
        _render_group(base, plain.get(expr_key(base), 0), conjd.get(expr_key(base), 0))
        for base in order
    ]


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

    def relation_pairs(self) -> list[tuple[int, int]]:
        """Every t_a >= t_b the bounds encode (uppers, lowers, outer)."""
        rels = [(1, self.outer[0])]
        for x, (lower, upper) in sorted(self.bounds.items()):
            rels.append((upper, x + 1))
            if lower:
                rels.append((x + 1, lower))
        return rels

    def render_text(self) -> str:
        dtree = build_dtree(self.pair)
        depth = {}
        for child in dtree.root:
            if not isinstance(child, FLeaf):
                stack = [(child, 1)]
                while stack:
                    x, d = stack.pop()
                    depth[x] = d
                    for c in dtree.kids[x]:
                        if not isinstance(c, FLeaf):
                            stack.append((c, d + 1))
        var, lo, hi = self.outer
        pieces = [f"Int[t{var}:0..t{hi}]"]
        for x in sorted(self.bounds, key=lambda x: (depth[x], x)):
            lower, upper = self.bounds[x]
            lo_txt = f"t{lower}" if lower else "0"
            pieces.append(f"Int[t{x + 1}:{lo_txt}..t{upper}]")
        return " ".join(pieces) + "\n" + expand_text(self.pair)


def integrated_expand(pair: CollapsingPair) -> IntegratedExpansion:
    """Attach the compatible integral bounds to every coupling."""
    dtree = build_dtree(pair)
    final = 2 * pair.k + 1
    bounds = {}
    for l in range(1, pair.k):
        x = 2 * l
        p = dtree.parent[x]
        upper = 1 if p == 0 else p + 1
        lower = final if dtree.is_offspring(2 * pair.k, x) else 0
        bounds[x] = (lower, upper)
    return IntegratedExpansion(pair, bounds, (final, 0, 1))

"""Command-line interface.

One executable, deterministic output: identical invocations produce
byte-identical stdout (timings, if any, go to stderr).  Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import canonical, counting, domains, duhamel, moves
from .errors import BoardError, CensusViolation, OutOfRange
from .pairs import (
    ENUMERATION_CAP,
    CollapsingPair,
    double_factorial_odd,
    enumerate_pairs,
    parse_mu,
    parse_sgn,
    random_pair,
    validate_pair,
)
from .trees import (
    pair_from_tree,
    skeleton_key,
    skeleton_of,
    tamed_labeling,
    tree_from_pair,
)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


def _pair_from_args(args) -> CollapsingPair:
    mu = parse_mu(args.mu)
    sgn = parse_sgn(args.sgn) if args.sgn else None
    return validate_pair(len(mu), mu, sgn)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise BoardError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _in_range(flag: str, value, low: int, high: int | None = None) -> None:
    if value is None:
        return
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise OutOfRange(f"{flag} must be {bound}, got {value}")


# -- subcommands -------------------------------------------------------------


def cmd_enumerate(args) -> int:
    _in_range("--limit", args.limit, 0)
    _in_range("--cap", args.cap, 1, ENUMERATION_CAP)
    lines = []
    for i, pair in enumerate(enumerate_pairs(args.k, signed=args.signed, cap=args.cap)):
        if args.limit is not None and i >= args.limit:
            break
        lines.append(_dumps(pair.to_json()))
    _emit(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_tree(args) -> int:
    tree = tree_from_pair(_pair_from_args(args))
    if args.format == "dot":
        _emit(args, tree.to_dot(signed=args.sgn is not None))
    else:
        _emit(args, _dumps(tree.to_json()) + "\n")
    return 0


def cmd_dtree(args) -> int:
    dtree = duhamel.build_dtree(_pair_from_args(args))
    if args.marked:
        dtree = duhamel.mark_dtree(dtree)
    if args.format == "dot":
        _emit(args, dtree.to_dot(marked=args.marked))
    else:
        _emit(args, _dumps(dtree.to_json()) + "\n")
    return 0


def cmd_canon(args) -> int:
    pair = _pair_from_args(args)
    out: dict = {"input": pair.to_json(), "form": args.form}
    if args.form == "echelon":
        canon, move_seq = canonical.to_echelon(pair)
        out["canonical"] = canon.to_json()
        out["moves"] = [[2 * j, 2 * j + 2] for j in move_seq]
    elif args.form == "tamed":
        canon, move_seq = canonical.to_tamed(pair)
        out["canonical"] = canon.to_json()
        out["moves"] = [[2 * j, 2 * j + 2] for j in move_seq]
    else:
        tamed, move_seq = canonical.to_tamed(pair)
        reference, rho = canonical.to_reference(tamed)
        out["canonical"] = reference.to_json()
        out["moves"] = [[2 * j, 2 * j + 2] for j in move_seq]
        out["permutation"] = rho.to_json()
    _emit(args, _dumps(out) + "\n")
    return 0


def cmd_classify(args) -> int:
    _in_range("--cap", args.cap, 1, ENUMERATION_CAP)
    lines = []
    if args.moves == "km":
        buckets: dict[str, list] = {}
        for pair in enumerate_pairs(args.k, signed=False, cap=args.cap):
            buckets.setdefault(skeleton_key(pair.mu), []).append(pair)
        for key in sorted(buckets):
            members = buckets[key]
            rep = canonical.echelon_pair(members[0])
            record = {
                "canonical_key": key,
                "size": len(members),
                "representative": rep.to_json(),
            }
            if args.members:
                record["members"] = [p.to_json() for p in members]
            lines.append(_dumps(record))
    elif args.moves == "signed-km":
        sbuckets: dict[str, list] = {}
        for pair in enumerate_pairs(args.k, signed=True, cap=args.cap):
            sbuckets.setdefault(skeleton_key(pair.mu, pair.sgn), []).append(pair)
        for key in sorted(sbuckets):
            members = sbuckets[key]
            rep = pair_from_tree(
                tamed_labeling(skeleton_of(tree_from_pair(members[0]), signed=True))
            )
            record = {
                "canonical_key": key,
                "size": len(members),
                "representative": rep.to_json(),
            }
            if args.members:
                record["members"] = [p.to_json() for p in members]
            lines.append(_dumps(record))
    else:  # wild classes partition the tamed pairs
        wbuckets: dict[str, dict] = {}
        for pair in canonical.tamed_pairs(args.k, cap=args.cap):
            reference, _ = canonical.to_reference(pair)
            key = _dumps(reference.to_json())
            entry = wbuckets.setdefault(key, {"reference": reference, "members": []})
            entry["members"].append(pair)
        for key in sorted(wbuckets):
            entry = wbuckets[key]
            record = {
                "canonical_key": key,
                "size": len(entry["members"]),
                "representative": entry["reference"].to_json(),
            }
            if args.members:
                record["members"] = [p.to_json() for p in entry["members"]]
            lines.append(_dumps(record))
    _emit(args, "".join(line + "\n" for line in lines))
    return 0


def cmd_domain(args) -> int:
    pair = _pair_from_args(args)
    if args.kind == "td":
        poset = domains.td_domain(pair)
    elif args.kind == "tc":
        poset = domains.tc_domain(pair)
    else:
        poset = domains.tr_domain(pair)
    if args.format == "json":
        payload = {
            "relations": [list(r) for r in poset.relations_sorted()],
            "extensions": domains.count_linear_extensions(poset),
        }
        _emit(args, _dumps(payload) + "\n")
    else:
        _emit(args, "".join(f"t_{a}>=t_{b}\n" for a, b in poset.relations_sorted()))
    return 0


def _expr_json(e) -> dict:
    if isinstance(e, duhamel.Atom):
        return {"atom": e.name}
    if isinstance(e, duhamel.Conj):
        return {"conj": _expr_json(e.body)}
    if isinstance(e, duhamel.Evolve):
        return {"evolve": [e.a, e.b], "body": _expr_json(e.body)}
    return {"prod": [_expr_json(f) for f in e.factors]}


def cmd_expand(args) -> int:
    pair = _pair_from_args(args)
    if args.integrated:
        integrated = duhamel.integrated_expand(pair)
        if args.format == "json":
            payload = {
                "outer": list(integrated.outer),
                "bounds": {str(x): list(b) for x, b in sorted(integrated.bounds.items())},
            }
            _emit(args, _dumps(payload) + "\n")
        else:
            _emit(args, integrated.render_text())
        return 0
    if args.format == "json":
        left, right = duhamel.expand(pair)
        _emit(args, _dumps({"x1": _expr_json(left), "x1p": _expr_json(right)}) + "\n")
    else:
        _emit(args, duhamel.expand_text(pair))
    return 0


def cmd_schedule(args) -> int:
    pair = _pair_from_args(args)
    schedule = duhamel.estimate_schedule(duhamel.mark_dtree(duhamel.build_dtree(pair)))
    _emit(args, _dumps(schedule.to_json()) + "\n")
    return 0


# -- verify ------------------------------------------------------------------


def _check_catalan(k, args, lines) -> bool:
    ok = True
    for kk in range(1, k + 1):
        try:
            report = counting.census(kk, signed=False)
        except CensusViolation as exc:
            lines.append(f"k={kk}: {exc} FAIL")
            return False
        cat = counting.catalan_ternary(kk)
        good = report.unsigned_classes == cat
        ok &= good
        lines.append(
            f"unsigned classes: {report.unsigned_classes} == catalan({kk}): {cat} "
            + ("OK" if good else "FAIL")
        )
    return ok


def _check_tamed_unique(k, args, lines) -> bool:
    ok = True
    for kk in range(1, k + 1):
        try:
            report = counting.census(kk, signed=True, threads=args.threads)
        except CensusViolation as exc:
            lines.append(f"k={kk}: {exc} FAIL")
            return False
        good = report.tamed_count == report.signed_classes
        ok &= good
        lines.append(
            f"k={kk}: {report.signed_classes} signed classes, {report.tamed_count} "
            "tamed pairs, one per class " + ("OK" if good else "FAIL")
        )
    return ok


def _check_reference_unique(k, args, lines) -> bool:
    for kk in range(1, k + 1):
        references: dict[str, int] = {}  # wild class -> reference pairs in it
        n_tamed = 0
        for pair in canonical.tamed_pairs(kk):
            n_tamed += 1
            reference, rho = canonical.to_reference(pair)
            back = moves.apply_wild(moves.MoveState.start(reference), rho).pair
            if back != pair:
                lines.append(f"k={kk}: witness failed for {pair} FAIL")
                return False
            key = str(reference)
            references[key] = references.get(key, 0) + canonical.is_reference(pair)
        if not references:
            lines.append(f"k={kk}: no tamed pairs FAIL")
            return False
        for key, n in references.items():
            if n != 1:
                lines.append(f"k={kk}: wild class of {key} holds {n} reference pairs FAIL")
                return False
        lines.append(
            f"k={kk}: {n_tamed} tamed pairs in {len(references)} wild classes, "
            "each with a verified reference witness OK"
        )
    return True


def _check_domain_bijection(k, args, lines) -> bool:
    ok = True
    for kk in range(1, k + 1):
        for pair in enumerate_pairs(kk, signed=False):
            orders = [domains.induced_order(rho) for rho in domains.sigma_set(pair)]
            if len(set(orders)) != len(orders):
                lines.append(f"k={kk}: duplicate induced order for {pair} FAIL")
                return False
            if set(orders) != domains.linear_extensions(domains.td_domain(pair)):
                lines.append(f"k={kk}: order sets differ for {pair} FAIL")
                return False
        lines.append(f"k={kk}: relabelings <-> linear extensions, exhaustively OK")
    rng = random.Random(args.seed)
    for _ in range(200):
        pair = random_pair(7, rng, signed=False)
        if len(domains.sigma_set(pair)) != domains.count_linear_extensions(
            domains.td_domain(pair)
        ):
            lines.append(f"random k=7: count mismatch for {pair} FAIL")
            return False
    lines.append("random k=7 (200 maps): relabeling count == extension count OK")
    return ok


def _check_compat(k, args, lines) -> bool:
    for kk in range(1, k + 1):
        n = 0
        for pair in canonical.tamed_pairs(kk):
            if not canonical.is_reference(pair):
                continue
            n += 1
            if domains.tr_domain(pair) != domains.tc_domain(pair):
                lines.append(f"k={kk}: T_R != T_C for {pair} FAIL")
                return False
        lines.append(f"k={kk}: T_R == T_C for all {n} reference pairs OK")
    return True


def _check_mass(k, args, lines) -> bool:
    for kk in range(1, k + 1):
        total = 0
        for pair in canonical.tamed_pairs(kk):
            if not canonical.is_reference(pair):
                continue
            extensions = domains.linear_extensions(domains.tr_domain(pair))
            seen: set = set()
            for rho in moves.allowable_permutations(pair):
                moved = moves.apply_wild(moves.MoveState.start(pair), rho).pair
                piece = domains.linear_extensions(
                    domains.relabel_domain(domains.td_domain(moved), rho.inverse())
                )
                if piece & seen:
                    lines.append(f"k={kk}: overlapping simplexes for {pair} FAIL")
                    return False
                seen |= piece
            if seen != extensions:
                lines.append(f"k={kk}: partition misses extensions for {pair} FAIL")
                return False
            total += len(extensions)
        expected = double_factorial_odd(kk) * 2**kk
        if total != expected:
            lines.append(f"k={kk}: mass {total} != {expected} FAIL")
            return False
        lines.append(f"k={kk}: disjoint partition, mass {total} == (2k-1)!!2^k OK")
    return True


def _check_duhamel(k, args, lines) -> bool:
    for kk in range(1, min(k, 3) + 1):
        for pair in enumerate_pairs(kk, signed=True):
            if duhamel.expand(pair) != tuple(
                map(duhamel.normalize, duhamel.expand_oracle(pair))
            ):
                lines.append(f"k={kk}: expansion != oracle for {pair} FAIL")
                return False
        lines.append(f"k={kk}: tree expansion == operator oracle, exhaustively OK")
    rng = random.Random(args.seed)
    for _ in range(50):
        pair = random_pair(5, rng, signed=True)
        if duhamel.expand(pair) != tuple(
            map(duhamel.normalize, duhamel.expand_oracle(pair))
        ):
            lines.append(f"random k=5: expansion != oracle for {pair} FAIL")
            return False
    lines.append("random k=5 (50 pairs): tree expansion == operator oracle OK")
    return True


CHECKS = {
    "catalan": _check_catalan,
    "tamed-unique": _check_tamed_unique,
    "reference-unique": _check_reference_unique,
    "domain-bijection": _check_domain_bijection,
    "compat": _check_compat,
    "mass": _check_mass,
    "duhamel": _check_duhamel,
}


def cmd_verify(args) -> int:
    _in_range("--k", args.k, 1)
    _in_range("--threads", args.threads, 1)
    names = list(CHECKS) if args.check == "all" else [args.check]
    lines: list[str] = []
    ok = True
    payload = {}
    for name in names:
        good = CHECKS[name](args.k, args, lines)
        payload[name] = "ok" if good else "fail"
        ok &= good
    _emit(args, "".join(line + "\n" for line in lines) + _dumps(payload) + "\n")
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kmboard")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_flags(p, sgn_required=True):
        p.add_argument("--mu", required=True, help="comma list, e.g. 1,1,1,2,3")
        p.add_argument(
            "--sgn",
            required=sgn_required,
            default=None,
            help="comma list, e.g. +,+,-,-,+",
        )
        p.add_argument("--out", default=None)

    p = sub.add_parser("enumerate", help="stream every pair as JSON lines")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("tree", help="admissible tree of a pair")
    add_pair_flags(p, sgn_required=False)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("dtree", help="Duhamel tree of a pair")
    add_pair_flags(p)
    p.add_argument("--marked", action="store_true")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_dtree)

    p = sub.add_parser("canon", help="canonical form and witness")
    add_pair_flags(p)
    p.add_argument("--form", choices=("echelon", "tamed", "reference"), required=True)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("classify", help="equivalence classes as JSON lines")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--moves", choices=("km", "signed-km", "wild"), required=True)
    p.add_argument("--members", action="store_true")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("domain", help="time-integration domain of a pair")
    add_pair_flags(p, sgn_required=False)
    p.add_argument("--kind", choices=("td", "tc", "tr"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_domain)

    p = sub.add_parser("expand", help="symbolic Duhamel expansion")
    add_pair_flags(p)
    p.add_argument("--integrated", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("schedule", help="marked-tree estimate schedule")
    add_pair_flags(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("verify", help="run the structure checks")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check", choices=("all",) + tuple(CHECKS), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _join_sign_flag(argv):
    """Fold "--sgn -,-,+" into "--sgn=-,-,+" so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--sgn" and i + 1 < len(argv):
            out.append(f"--sgn={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_sign_flag(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BoardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

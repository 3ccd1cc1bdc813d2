"""Command-line interface.

One executable, deterministic output: identical invocations produce
byte-identical stdout.  ``verify`` runs the checks of
:mod:`kmboard.verify`, prints their report lines (a failed check's last
line ends in FAIL) and no timings yet.  Exit codes: 0 success, 1
verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import canonical, domains, duhamel, verify
from .errors import BoardError, OutOfRange
from .pairs import (
    ENUMERATION_CAP,
    CollapsingPair,
    enumerate_pairs,
    parse_mu,
    parse_sgn,
    validate_pair,
)
from .trees import skeleton_key, tree_from_pair
from .verify import CHECKS


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
    reduce = canonical.to_echelon if args.form == "echelon" else canonical.to_tamed
    canon, move_seq = reduce(pair)
    if args.form == "reference":
        canon, rho = canonical.to_reference(canon)
        out["permutation"] = rho.to_json()
    out["canonical"] = canon.to_json()
    out["moves"] = [[2 * j, 2 * j + 2] for j in move_seq]
    _emit(args, _dumps(out) + "\n")
    return 0


def _reference_of(pair: CollapsingPair) -> CollapsingPair:
    return canonical.to_reference(pair)[0]


def cmd_classify(args) -> int:
    _in_range("--cap", args.cap, 1, ENUMERATION_CAP)
    if args.moves == "km":
        pairs = enumerate_pairs(args.k, signed=False, cap=args.cap)
        key_of, rep_of = (lambda p: skeleton_key(p.mu)), (lambda p: canonical.to_echelon(p)[0])
    elif args.moves == "signed-km":
        pairs = enumerate_pairs(args.k, signed=True, cap=args.cap)
        key_of, rep_of = (lambda p: skeleton_key(p.mu, p.sgn)), (lambda p: canonical.to_tamed(p)[0])
    else:  # wild classes partition the tamed pairs
        pairs = canonical.tamed_pairs(args.k, cap=args.cap)
        key_of, rep_of = (lambda p: _dumps(_reference_of(p).to_json())), _reference_of
    buckets: dict[str, list] = {}
    for pair in pairs:
        buckets.setdefault(key_of(pair), []).append(pair)
    lines = []
    for key in sorted(buckets):
        members = buckets[key]
        record = {
            "canonical_key": key,
            "size": len(members),
            "representative": rep_of(members[0]).to_json(),
        }
        if args.members:
            record["members"] = [p.to_json() for p in members]
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
        # the count is exact at any k, so it may pass the interpreter's digit
        # limit (0 is none, as before Python 3.10.7); lift it for this dump only
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            text = _dumps(payload)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        _emit(args, text + "\n")
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


def cmd_verify(args) -> int:
    _in_range("--k", args.k, 1)
    _in_range("--threads", args.threads, 1)
    names = list(CHECKS) if args.check == "all" else [args.check]
    lines, results = verify.run_checks(names, args.k, seed=args.seed, threads=args.threads)
    payload = {name: "ok" if good else "fail" for name, good in results.items()}
    _emit(args, "".join(line + "\n" for line in lines) + _dumps(payload) + "\n")
    return 0 if all(results.values()) else 1


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
    except RecursionError:
        print("error: input nests too deeply for this command", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

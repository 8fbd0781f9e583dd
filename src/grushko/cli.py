"""Command-line surface: machine JSON on stdout, human summaries on stderr.

Every command is deterministic given its flags and seed; verification
reports embed the configuration that produced them.  Exit codes: 0 success,
1 verification failure, 2 bad input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .words import parse
from .jsoncheck import check
from .membership import contains, fold, make_automorphism, semidirect_embed
from .factors import parse_class
from .trees import BudgetExceededError, MarkedTree, enumerate_shapes, shape_poset
from .visibility import CertificationError, certify_partial_basis, visible_classes, visible_classes_brute
from .topology import SimplicialComplex, betti, homology_report_json
from .basis_complex import (
    MAX_RADIUS,
    PartialBasisComplex,
    build_from_trees,
    build_unpaired_radius,
    connectivity_report,
)
from .verify import RunConfig, run_all


def _emit(data) -> None:
    print(json.dumps(data, ensure_ascii=False) if not isinstance(data, str) else data)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_json_file(path: str):
    """The JSON in a file, or on stdin for "-"; a parse error exits with code 2."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _note(f"error: {_source(path)}: parse error at line {exc.lineno}, "
              f"column {exc.colno}: {exc.msg}")
        raise SystemExit(2) from None


def _load(path: str, from_json):
    """from_json of the JSON in path; its ValueError names the file."""
    data = _load_json_file(path)
    try:
        return from_json(json.dumps(data))
    except ValueError as exc:
        raise ValueError(f"{_source(path)}: {exc}") from None


def _source(path: str) -> str:
    return "<stdin>" if path == "-" else path


def _load_tree(path: str) -> MarkedTree:
    return _load(path, MarkedTree.from_json)


def _bounded_int(lo: int, hi: int | None, message: str):
    """An argparse type for integers in lo..hi (hi None: no upper bound).

    Out of range it exits 2 with message, its {} filled with the value;
    a text that is no integer exits 2 naming the message's subject, the
    words before " must ".
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{message.partition(' must ')[0]} must be an integer, got {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(message.format(value))
        return value
    return parse


_rank = _bounded_int(1, None, "rank must be >= 1, got {}")
_gn_rank = _bounded_int(
    4, None, "rank must be >= 4 (the words w_4..w_n conjugate x_4..x_n), got {}")
_brute_bound = _bounded_int(0, None, "brute-force bound must be >= 0, got {}")
_radius = _bounded_int(0, MAX_RADIUS, f"radius must be in 0..{MAX_RADIUS}, got {{}}")


def _infer_rank(texts: list[str], flag: int | None) -> int:
    if flag is not None:
        return flag
    best = 1
    for t in texts:
        for tok in t.replace("*", " ").replace(".", " ").replace(",", " ").split():
            body = tok[1:] if tok[:1] in "xX" else tok
            if body.isdigit():
                best = max(best, int(body))
    return best


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_words(args) -> int:
    n = _infer_rank(args.words, args.n)
    ws = [parse(w, n) for w in args.words]
    if args.op == "reduce":
        if not ws:  # argparse lets "-- --" through nargs="+" with no word
            _note("error: reduce takes a word")
            raise SystemExit(2)
        out = ws[0]
    else:
        if len(ws) != 2:
            _note("error: multiply takes two words")
            raise SystemExit(2)
        out = ws[0] * ws[1]
    _emit({"rank": n, "word": str(out)})
    return 0


def cmd_fold(args) -> int:
    texts = [t for t in args.words.split(",") if t.strip()]
    n = _infer_rank(texts, args.n)
    gens = [parse(t, n) for t in texts]
    # parsed before any output, so that a bad --member exits 2 with nothing emitted
    member = parse(args.member, n) if args.member else None
    core = fold(gens)
    if args.dot:
        _emit(core.to_dot())
    else:
        _emit({
            "rank": n,
            "vertices": core.num_vertices,
            "adjacency": [{str(j): v for j, v in sorted(adj.items())} for adj in core.adj],
            "mirrors": [sorted(m) for m in core.mirrors],
        })
    if member is not None:
        _note(f"membership of {member}: {contains(core, member)}")
    return 0


def cmd_visible(args) -> int:
    tree = _load_tree(args.tree)
    fam = visible_classes(tree, args.pair)
    out = {"pair": args.pair, "classes": [str(c) for c in fam.classes]}
    if args.brute is not None:
        brute = visible_classes_brute(tree, args.pair, args.brute)
        out["brute_classes"] = sorted(str(c) for c in brute)
        out["brute_matches"] = set(brute) == set(fam.classes)
    _emit(out)
    _note(f"{len(fam.classes)} visible classes for pair {args.pair}")
    return 0


def cmd_certify(args) -> int:
    tree = _load_tree(args.tree)
    class_texts = _load_json_file(args.classes)
    try:
        check(class_texts, [str])
    except ValueError as exc:
        raise ValueError(f"{_source(args.classes)}: {exc}") from None
    classes = [parse_class(t, tree.n) for t in class_texts]
    basis = certify_partial_basis(tree, classes)
    _emit({"basis": [str(w) for w in basis]})
    return 0


def cmd_shapes(args) -> int:
    sp = shape_poset(args.n) if args.poset else None
    shapes = sp.shapes if sp else enumerate_shapes(args.n, up_to_relabeling=args.up_to_relabeling)
    out = {"n": args.n,
           "shapes": [{"slots": s.slot_of, "edges": [list(e) for e in s.edges]} for s in shapes]}
    note = f"{len(shapes)} shapes"
    if sp:
        chain = sp.longest_chain()
        out.update(relations=sp.relation_pairs(), longest_chain=chain)
        note += f", longest chain {chain} (spine dimension {chain - 1})"
    _emit(out)
    _note(note)
    return 0


def cmd_homology(args) -> int:
    cx = _load(args.infile, SimplicialComplex.from_json)
    # betti runs first, so that a bad --field exits 2 before any output
    ranks = None
    if args.field:
        ranks = betti(cx, "Q" if args.field == "Q" else int(args.field))
    _emit(homology_report_json(cx))
    if ranks is not None:
        _note(f"reduced betti over {args.field}: {ranks}")
    return 0


def cmd_bp(args) -> int:
    if args.bp_op == "build":
        if args.unpaired:
            sub = build_unpaired_radius(args.n, args.radius)
        else:
            if not args.trees:
                _note("error: paired build needs --trees")
                raise SystemExit(2)
            trees = [_load_tree(p) for p in args.trees.split(",")]
            sub = build_from_trees(trees)
        _emit(sub.to_json())
        _note(f"{len(sub.elements)} partial bases over {len(sub.classes)} classes")
    else:
        sub = _load(args.infile, PartialBasisComplex.from_json)
        _emit(connectivity_report(sub).to_json())
    return 0


def cmd_gn_embed(args) -> int:
    n = args.n
    try:
        texts = json.loads(args.phi3)
        check(texts, [str, str, str])
        phi3 = make_automorphism([parse(t, 3) for t in texts])
    except ValueError as exc:
        raise ValueError(f"--phi3: {exc}") from None
    wtexts = [t for t in args.words.split(",")] if args.words else []
    wtuple = tuple(parse(t, n) for t in wtexts)
    phi = semidirect_embed(wtuple, phi3, restrict_to_first_three=not args.free)
    _emit({
        "images": [str(w) for w in phi.images],
        "inverse_images": [str(w) for w in phi.inverse_images],
    })
    return 0


def cmd_verify_all(args) -> int:
    config = RunConfig(n_max=args.n, radius=args.radius, vertex_cap=args.vertex_cap,
                       seed=args.seed)
    t0 = time.monotonic()
    report = run_all(config)
    for item in report["criteria"]:
        status = item["status"].upper()
        _note(f"[{item['id']:2d}] {item['name']:<32s} {status:>15s} ({item['seconds']:.1f}s)")
    _note(f"total {time.monotonic() - t0:.1f}s")
    text = json.dumps(report, ensure_ascii=False, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        _emit(report)
    statuses = {item["status"] for item in report["criteria"]}
    if "fail" in statuses:
        return 1
    if "budget-exceeded" in statuses:
        return 3
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="grushko",
                                 description="free Coxeter word algebra, Grushko trees, "
                                             "visibility and partial-basis complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", help="reduce or multiply words")
    p.add_argument("op", choices=["reduce", "multiply"])
    p.add_argument("words", nargs="+")
    p.add_argument("--n", type=_rank, default=None)
    p.set_defaults(fn=cmd_words)

    p = sub.add_parser("fold", help="fold subgroup generators into a core graph")
    p.add_argument("--words", required=True, help="comma-separated generator words")
    p.add_argument("--n", type=_rank, default=None)
    p.add_argument("--member", default=None, help="also test membership of this word")
    p.add_argument("--dot", action="store_true", help="emit graphviz instead of JSON")
    p.set_defaults(fn=cmd_fold)

    p = sub.add_parser("visible", help="visible classes of a pair index in a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--brute", type=_brute_bound, default=None, metavar="L",
                   help="cross-check against brute force, conjugators of at most "
                        "L marking letters")
    p.set_defaults(fn=cmd_visible)

    p = sub.add_parser("certify", help="build a basis realizing visible classes")
    p.add_argument("--tree", required=True)
    p.add_argument("--classes", required=True, help="JSON list of class literals")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("shapes", help="enumerate reduced shapes / the spine poset")
    p.add_argument("--n", type=_rank, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--poset", action="store_true")
    mode.add_argument("--up-to-relabeling", action="store_true")
    p.set_defaults(fn=cmd_shapes)

    p = sub.add_parser("homology", help="homology report of a complex JSON")
    p.add_argument("--in", dest="infile", default="-", help="input path or - for stdin")
    p.add_argument("--field", default=None, help="also print betti over Q or a prime")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("bp", help="build/report partial-basis complexes")
    bp_sub = p.add_subparsers(dest="bp_op", required=True)
    b = bp_sub.add_parser("build")
    b.add_argument("--n", type=_rank, required=True)
    b.add_argument("--trees", default=None, help="comma-separated tree JSON paths")
    b.add_argument("--unpaired", action="store_true")
    b.add_argument("--radius", type=_radius, default=0)
    b.set_defaults(fn=cmd_bp)
    r = bp_sub.add_parser("report")
    r.add_argument("--in", dest="infile", default="-")
    r.set_defaults(fn=cmd_bp)

    p = sub.add_parser("gn-embed", help="extend a rank-3 automorphism by conjugations")
    p.add_argument("--n", type=_gn_rank, required=True)
    p.add_argument("--words", default="", help="comma-separated w_4..w_n")
    p.add_argument("--phi3", default='["x1","x2","x3"]',
                   help="JSON list of three image words")
    p.add_argument("--free", action="store_true",
                   help="do not restrict the words to <x1,x2,x3>")
    p.set_defaults(fn=cmd_gn_embed)

    p = sub.add_parser("verify-all", help="run the acceptance criteria")
    p.add_argument("--n", type=_rank, default=5)
    p.add_argument("--radius", type=_radius, default=1)
    p.add_argument("--vertex-cap", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        _note(f"budget exceeded: {exc}")
        return 3
    except CertificationError as exc:
        _note(f"error: {exc}")
        return 1
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

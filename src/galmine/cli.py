"""Command-line front-end: the whole pipeline as batch subcommands.

Results go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 1 usage error, 2 input parse error, 3 constraint or
resource error.  Input files may be ``-`` for standard input; the
format is auto-detected from the extension (.tab/.cxt/.csv) and can be
overridden with --in-format.
"""

import argparse
import json
import sys

from galmine import lattice as lattice_mod
from galmine import miner, postprocess, preprocess, rules as rules_mod, toolbox
from galmine.context import BinaryContext, _read_input, _split_lines
from galmine.errors import ConstraintError, GalmineError, ParseError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _minsup_arg(text: str):
    """Absolute int count, or percentage like ``5%`` as a relative
    fraction."""
    if text.endswith("%"):
        try:
            return float(text[:-1]) / 100.0
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad percentage: {text!r}") from None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"minsup must be an integer or a percentage, got {text!r}") from None


def _csv_list(text: str) -> list[str]:
    return [t for t in text.split(",") if t]


def _len_window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected MIN,MAX, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer MIN,MAX, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="galmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="input file, or - for standard input")
        p.add_argument("--in-format", choices=("tab", "cxt", "csv"), default=None)

    p = sub.add_parser("stats", help="context summary")
    add_input(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("pre", help="pre-processing")
    pre = p.add_subparsers(dest="pre_command", required=True)
    for name in ("transpose", "complement"):
        q = pre.add_parser(name)
        add_input(q)
        q.add_argument("--out-format", choices=("tab", "cxt"), default="tab")
    q = pre.add_parser("project")
    add_input(q)
    q.add_argument("--keep-objects", type=_csv_list, default=None)
    q.add_argument("--keep-attributes", type=_csv_list, default=None)
    q.add_argument("--min-col-support", type=int, default=None)
    q.add_argument("--out-format", choices=("tab", "cxt"), default="tab")
    q = pre.add_parser("convert")
    add_input(q)
    q.add_argument("--out-format", choices=("tab", "cxt"), default="tab")
    q = pre.add_parser("discretize")
    add_input(q)
    q.add_argument("--bins", type=int, default=2)
    q.add_argument("--binning", choices=("width", "freq"), default="width")
    q.add_argument("--label-column", action="store_true", help="first CSV column holds object labels")
    q.add_argument("--out-format", choices=("tab", "cxt"), default="tab")

    p = sub.add_parser("mine", help="itemset mining")
    add_input(p)
    p.add_argument("--minsup", type=_minsup_arg, default=1)
    p.add_argument("--set", dest="family", choices=("fi", "fci", "fg", "mri"), default="fi")
    p.add_argument("--strategy", choices=miner.STRATEGIES, default="levelwise")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("rules", help="association rules and implication bases")
    add_input(p)
    p.add_argument("--basis", choices=("all", "generic", "mnr", "rmnr", "closed", "rare", "dg"), default="all")
    p.add_argument("--minsup", type=_minsup_arg, default=1)
    p.add_argument("--minconf", type=float, default=0.5)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("lattice", help="concept lattice")
    add_input(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--label-mode", choices=("full", "reduced"), default="full")

    p = sub.add_parser("post", help="post-processing of rule streams")
    post = p.add_subparsers(dest="post_command", required=True)
    q = post.add_parser("filter", help="filter rule JSON-lines")
    q.add_argument("input", help="rule JSON-lines file, or -")
    q.add_argument("--premise-len", type=_len_window, default=None)
    q.add_argument("--consequent-len", type=_len_window, default=None)
    q.add_argument("--contain", type=_csv_list, default=[])
    q.add_argument("--not-contain", type=_csv_list, default=[])
    q.add_argument("--side", choices=("premise", "consequent", "either"), default="either")
    q.add_argument("--format", choices=("text", "json"), default="json")
    q = post.add_parser("topk", help="best rules by a measure")
    q.add_argument("input", help="rule JSON-lines file, or -")
    q.add_argument("--top", type=int, required=True)
    q.add_argument("--by", choices=postprocess.MEASURES, default="support")
    q.add_argument("--format", choices=("text", "json"), default="json")
    q = post.add_parser("color", help="highlight attributes in rendered text lines")
    q.add_argument("input", help="text file, or -")
    q.add_argument("--color", type=_csv_list, required=True, metavar="ATTRS")

    p = sub.add_parser("gen", help="random context generation")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-format", choices=("tab", "cxt"), default="tab")
    return parser


def _detect_format(path: str, override, default: str = "tab") -> str:
    if override:
        return override
    for fmt in ("tab", "cxt", "csv"):
        if path.endswith("." + fmt):
            return fmt
    return default


def _read_context(path: str, override) -> BinaryContext:
    fmt = _detect_format(path, override)
    if fmt == "csv":
        raise ConstraintError("CSV input needs discretization first (see: galmine pre discretize)")
    return preprocess.parse_context(_read_input(path), fmt)


def _emit(lines) -> None:
    for line in lines:
        print(line)


def _cmd_stats(args) -> int:
    ctx = _read_context(args.input, args.in_format)
    stats = ctx.stats()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "objects": stats.n_objects,
                    "attributes": stats.n_attributes,
                    "ones": stats.ones,
                    "density": stats.density,
                    "attribute_supports": dict(zip(ctx.attribute_labels, stats.attribute_supports)),
                }
            )
        )
    else:
        print(f"objects: {stats.n_objects}")
        print(f"attributes: {stats.n_attributes}")
        print(f"ones: {stats.ones}")
        print(f"density: {stats.density}")
        for label, supp in zip(ctx.attribute_labels, stats.attribute_supports):
            print(f"support {label}: {supp}")
    return 0


def _cmd_pre(args) -> int:
    if args.pre_command == "discretize":
        fmt = _detect_format(args.input, args.in_format, default="csv")
        if fmt != "csv":
            raise ConstraintError("discretize expects CSV input")
        table = preprocess.parse_csv(_read_input(args.input), has_label_column=args.label_column)
        ctx = preprocess.discretize(table, preprocess.BinningSpec(strategy=args.binning, bin_count=args.bins))
        sys.stdout.write(preprocess.write_context(ctx, args.out_format))
        return 0
    ctx = _read_context(args.input, args.in_format)
    if args.pre_command == "transpose":
        ctx = ctx.transpose()
    elif args.pre_command == "complement":
        ctx = ctx.complement()
    elif args.pre_command == "project":
        ctx = ctx.project(
            keep_objects=args.keep_objects,
            keep_attributes=args.keep_attributes,
            min_column_support=args.min_col_support,
        )
    sys.stdout.write(preprocess.write_context(ctx, args.out_format))
    return 0


def _cmd_mine(args) -> int:
    ctx = _read_context(args.input, args.in_format)
    if args.family == "fi":
        sets = miner.mine_frequent(ctx, args.minsup, strategy=args.strategy)
    elif args.family == "fci":
        sets = miner.mine_closed(ctx, args.minsup)
    elif args.family == "fg":
        sets = miner.mine_generators(ctx, args.minsup)
    else:
        sets = miner.mine_minimal_rare(ctx, args.minsup)
    if args.format == "json":
        _emit(miner.render_itemsets_jsonl(sets, ctx.attribute_labels))
    else:
        _emit(miner.render_itemsets_text(sets, ctx.attribute_labels))
    return 0


def _cmd_rules(args) -> int:
    ctx = _read_context(args.input, args.in_format)
    basis = args.basis
    if basis == "all":
        out = rules_mod.all_rules(ctx, args.minsup, args.minconf)
    elif basis == "generic":
        out = rules_mod.generic_basis(ctx, args.minsup)
    elif basis == "mnr":
        out = rules_mod.mnr_rules(ctx, args.minsup, args.minconf, reduced=False)
    elif basis == "rmnr":
        out = rules_mod.mnr_rules(ctx, args.minsup, args.minconf, reduced=True)
    elif basis == "closed":
        out = rules_mod.closed_rules(ctx, args.minsup, args.minconf)
    elif basis == "rare":
        out = rules_mod.rare_rules(ctx, args.minsup)
    else:
        out = rules_mod.duquenne_guigues(ctx)
    if args.format == "json":
        _emit(rules_mod.render_rules_jsonl(out))
    else:
        _emit(rules_mod.render_rules_text(out))
    return 0


def _cmd_lattice(args) -> int:
    ctx = _read_context(args.input, args.in_format)
    lat = lattice_mod.build_lattice(ctx)
    if args.dot:
        sys.stdout.write(lattice_mod.export_dot(lat, label_mode=args.label_mode))
    else:
        print(lattice_mod.export_json(lat))
    return 0


def _cmd_post(args) -> int:
    if args.post_command == "color":
        _emit(postprocess.colorize(_split_lines(_read_input(args.input)), args.color, enabled=True))
        return 0
    parsed = rules_mod.parse_rules_jsonl(_read_input(args.input))
    if args.post_command == "filter":
        spec = postprocess.FilterSpec(
            premise_len=args.premise_len,
            consequent_len=args.consequent_len,
            must_contain=frozenset(args.contain),
            must_not_contain=frozenset(args.not_contain),
            side=args.side,
        )
        out = postprocess.filter_rules(parsed, spec)
    else:
        out = postprocess.top_k(parsed, args.by, args.top)
    if args.format == "text":
        _emit(rules_mod.render_rules_text(out))
    else:
        _emit(rules_mod.render_rules_jsonl(out))
    return 0


def _cmd_gen(args) -> int:
    spec = toolbox.GenSpec(rows=args.rows, cols=args.cols, density=args.density, seed=args.seed)
    sys.stdout.write(preprocess.write_context(toolbox.random_context(spec), args.out_format))
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "pre": _cmd_pre,
    "mine": _cmd_mine,
    "rules": _cmd_rules,
    "lattice": _cmd_lattice,
    "post": _cmd_post,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GalmineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

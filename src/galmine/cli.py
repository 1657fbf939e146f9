"""Command-line front-end: the whole pipeline as batch subcommands.

Results go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 1 usage error, 2 input/output or parse error, 3
constraint or resource error.  Input files may be ``-`` for standard
input; the format is auto-detected from the extension (.tab/.cxt/.csv,
in any case) and can be overridden with --in-format.
"""

import argparse
import contextlib
import json
import os
import sys

from galmine import lattice as lattice_mod
from galmine import miner, postprocess, preprocess, rules as rules_mod, toolbox
from galmine.context import BinaryContext, _read_input, _split_lines
from galmine.errors import ConstraintError, GalmineError, ParseError

_IN_FORMATS = (*preprocess.CONTEXT_FORMATS, "csv")


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
        p.add_argument("--in-format", choices=_IN_FORMATS, default=None)

    def add_output(p):
        p.add_argument("--out-format", choices=preprocess.CONTEXT_FORMATS, default="tab")

    def leaf(parent, name, run, *adders, **kwargs):
        """Add a command that runs ``run``, taking the arguments of ``adders`` first."""
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        for add in adders:
            add(p)
        return p

    p = leaf(sub, "stats", _cmd_stats, add_input, help="context summary")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("pre", help="pre-processing")
    pre = p.add_subparsers(dest="pre_command", required=True)
    leaf(pre, "transpose", lambda args: _read_context(args).transpose(), add_input, add_output)
    leaf(pre, "complement", lambda args: _read_context(args).complement(), add_input, add_output)
    q = leaf(pre, "project", _cmd_project, add_input)
    q.add_argument("--keep-objects", type=_csv_list, default=None)
    q.add_argument("--keep-attributes", type=_csv_list, default=None)
    q.add_argument("--min-col-support", type=int, default=None)
    add_output(q)
    leaf(pre, "convert", _read_context, add_input, add_output)
    q = leaf(pre, "discretize", _cmd_discretize, add_input)
    q.add_argument("--bins", type=int, default=2)
    q.add_argument("--binning", choices=preprocess.BINNING_STRATEGIES, default="width")
    q.add_argument("--label-column", action="store_true", help="first CSV column holds object labels")
    add_output(q)

    p = leaf(sub, "mine", _cmd_mine, add_input, help="itemset mining")
    p.add_argument("--minsup", type=_minsup_arg, default=1)
    p.add_argument("--set", dest="family", choices=_SETS, default="fi")
    p.add_argument("--strategy", choices=miner.STRATEGIES, default="levelwise")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = leaf(sub, "rules", _cmd_rules, add_input, help="association rules and implication bases")
    p.add_argument("--basis", choices=_BASES, default="all")
    p.add_argument("--minsup", type=_minsup_arg, default=1)
    p.add_argument("--minconf", type=float, default=0.5)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = leaf(sub, "lattice", _cmd_lattice, add_input, help="concept lattice")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--label-mode", choices=lattice_mod.LABEL_MODES, default="full")

    p = sub.add_parser("post", help="post-processing of rule streams")
    post = p.add_subparsers(dest="post_command", required=True)
    q = leaf(post, "filter", _cmd_filter, help="filter rule JSON-lines")
    q.add_argument("input", help="rule JSON-lines file, or -")
    q.add_argument("--premise-len", type=_len_window, default=None)
    q.add_argument("--consequent-len", type=_len_window, default=None)
    q.add_argument("--contain", type=_csv_list, default=[])
    q.add_argument("--not-contain", type=_csv_list, default=[])
    q.add_argument("--side", choices=postprocess.SIDES, default="either")
    q.add_argument("--format", choices=("text", "json"), default="json")
    q = leaf(post, "topk", _cmd_topk, help="best rules by a measure")
    q.add_argument("input", help="rule JSON-lines file, or -")
    q.add_argument("--top", type=int, required=True)
    q.add_argument("--by", choices=postprocess.MEASURES, default="support")
    q.add_argument("--format", choices=("text", "json"), default="json")
    q = leaf(post, "color", _cmd_color, help="highlight attributes in rendered text lines")
    q.add_argument("input", help="text file, or -")
    q.add_argument("--color", type=_csv_list, required=True, metavar="ATTRS")

    p = leaf(sub, "gen", _cmd_gen, help="random context generation")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    return parser


def _detect_format(path: str, override, default: str = "tab") -> str:
    if override:
        return override
    for fmt in _IN_FORMATS:
        if path.lower().endswith("." + fmt):
            return fmt
    return default


def _read_context(args) -> BinaryContext:
    fmt = _detect_format(args.input, args.in_format)
    if fmt == "csv":
        raise ConstraintError("CSV input needs discretization first (see: galmine pre discretize)")
    return preprocess.parse_context(_read_input(args.input), fmt)


def _cmd_stats(args) -> list[str]:
    ctx = _read_context(args)
    stats = ctx.stats()
    if args.format == "json":
        record = {
            "objects": stats.n_objects,
            "attributes": stats.n_attributes,
            "ones": stats.ones,
            "density": stats.density,
            "attribute_supports": dict(zip(ctx.attribute_labels, stats.attribute_supports)),
        }
        return [json.dumps(record)]
    return [
        f"objects: {stats.n_objects}",
        f"attributes: {stats.n_attributes}",
        f"ones: {stats.ones}",
        f"density: {stats.density}",
        *(f"support {label}: {supp}" for label, supp in zip(ctx.attribute_labels, stats.attribute_supports)),
    ]


def _cmd_project(args) -> BinaryContext:
    return _read_context(args).project(args.keep_objects, args.keep_attributes, args.min_col_support)


def _cmd_discretize(args) -> BinaryContext:
    if _detect_format(args.input, args.in_format, default="csv") != "csv":
        raise ConstraintError("discretize expects CSV input")
    table = preprocess.parse_csv(_read_input(args.input), has_label_column=args.label_column)
    return preprocess.discretize(table, preprocess.BinningSpec(strategy=args.binning, bin_count=args.bins))


_SETS = {
    "fi": lambda ctx, args: miner.mine_frequent(ctx, args.minsup, strategy=args.strategy),
    "fci": lambda ctx, args: miner.mine_closed(ctx, args.minsup),
    "fg": lambda ctx, args: miner.mine_generators(ctx, args.minsup),
    "mri": lambda ctx, args: miner.mine_minimal_rare(ctx, args.minsup),
}


def _cmd_mine(args) -> list[str]:
    ctx = _read_context(args)
    sets = _SETS[args.family](ctx, args)
    render = miner.render_itemsets_jsonl if args.format == "json" else miner.render_itemsets_text
    return render(sets, ctx.attribute_labels)


_BASES = {
    "all": lambda ctx, args: rules_mod.all_rules(ctx, args.minsup, args.minconf),
    "generic": lambda ctx, args: rules_mod.generic_basis(ctx, args.minsup),
    "mnr": lambda ctx, args: rules_mod.mnr_rules(ctx, args.minsup, args.minconf, reduced=False),
    "rmnr": lambda ctx, args: rules_mod.mnr_rules(ctx, args.minsup, args.minconf, reduced=True),
    "closed": lambda ctx, args: rules_mod.closed_rules(ctx, args.minsup, args.minconf),
    "rare": lambda ctx, args: rules_mod.rare_rules(ctx, args.minsup),
    "dg": lambda ctx, args: rules_mod.duquenne_guigues(ctx),
}


def _render_rules(rules, fmt: str) -> list[str]:
    return (rules_mod.render_rules_jsonl if fmt == "json" else rules_mod.render_rules_text)(rules)


def _cmd_rules(args) -> list[str]:
    ctx = _read_context(args)
    return _render_rules(_BASES[args.basis](ctx, args), args.format)


def _cmd_lattice(args) -> str:
    lat = lattice_mod.build_lattice(_read_context(args))
    if args.dot:
        return lattice_mod.export_dot(lat, label_mode=args.label_mode)
    return lattice_mod.export_json(lat) + "\n"


def _cmd_filter(args) -> list[str]:
    parsed = rules_mod.parse_rules_jsonl(_read_input(args.input))
    spec = postprocess.FilterSpec(
        premise_len=args.premise_len,
        consequent_len=args.consequent_len,
        must_contain=frozenset(args.contain),
        must_not_contain=frozenset(args.not_contain),
        side=args.side,
    )
    return _render_rules(postprocess.filter_rules(parsed, spec), args.format)


def _cmd_topk(args) -> list[str]:
    parsed = rules_mod.parse_rules_jsonl(_read_input(args.input))
    return _render_rules(postprocess.top_k(parsed, args.by, args.top), args.format)


def _cmd_color(args) -> list[str]:
    return postprocess.colorize(_split_lines(_read_input(args.input)), args.color, enabled=True)


def _cmd_gen(args) -> BinaryContext:
    spec = toolbox.GenSpec(rows=args.rows, cols=args.cols, density=args.density, seed=args.seed)
    return toolbox.random_context(spec)


def _chunks(lines: list[str]):
    """The lines, each ended by ``\\n``, joined 1,024 at a time and never
    all at once: a large output is not copied whole."""
    for i in range(0, len(lines), 1024):
        yield "".join(line + "\n" for line in lines[i : i + 1024])


def main(argv=None) -> int:
    """Run one command; the only writer of stdout.  A command returns a
    text, a list of lines or a context (written in --out-format), sent as
    UTF-8 bytes with ``\\n`` line ends whatever the locale or platform."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if sys.stdout is None:
            raise OSError("standard output is closed")
        out = args.run(args)
        if isinstance(out, BinaryContext):
            out = preprocess.write_context(out, args.out_format)
        stdout = sys.stdout.buffer
        for text in [out] if isinstance(out, str) else _chunks(out):
            stdout.write(text.encode("utf-8"))
        stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader stopped reading: send what is still buffered to
        # devnull, so that the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _UsageError as exc:
        code, message = 1, f"usage error: {exc}"
    except ParseError as exc:
        code, message = 2, f"parse error: {exc}"
    except GalmineError as exc:
        code, message = 3, f"error: {exc}"
    except OSError as exc:
        code, message = 2, f"error: {exc}"
    # to a live stderr only: print() to a stderr of None writes to stdout
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

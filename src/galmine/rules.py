"""Association-rule families and implication bases.

Rules carry attribute labels (not ids) so that serialized rule streams
are self-contained for downstream filtering.  Items inside a rule keep
the context's attribute order; rule lists are ordered by
(support desc, confidence desc, premise lex, consequent lex) over the
label tuples.

Measures, for a rule X -> Y over N objects with xy = supp(X ∪ Y):

* confidence = xy / supp(X)
* lift       = xy * N / (supp(X) * supp(Y))
* conviction = (1 - supp(Y)/N) / (1 - confidence), +inf at confidence 1

The closed rule bases read the sets above each closed set, or only its
covers, from one superset index; the Duquenne-Guigues basis runs the
lattice's Next-Closure enumerator (both in ``galmine.closures``).
"""

import json
import math
from dataclasses import dataclass
from itertools import combinations

from galmine._bitset import bits_of, mask_of
from galmine.closures import canonical, check_width, context_closure, covers, lectic_closed, superset_index
from galmine.context import BinaryContext, Itemset, _split_lines
from galmine.errors import ConstraintError, ParseError
from galmine.miner import _levelwise, _mine_class_list, resolve_minsup


@dataclass(frozen=True)
class AssociationRule:
    """premise -> consequent with the four interestingness measures.

    ``support`` is the absolute support of premise ∪ consequent.  The
    premise is empty only for implications produced by the
    Duquenne-Guigues basis.
    """

    premise: tuple[str, ...]
    consequent: tuple[str, ...]
    support: int
    confidence: float
    lift: float
    conviction: float

    def __post_init__(self):
        if not self.consequent:
            raise ConstraintError("rule consequent must be non-empty")
        if set(self.premise) & set(self.consequent):
            raise ConstraintError("rule premise and consequent must be disjoint")


def measures(n_objects: int, supp_xy: int, supp_x: int, supp_y: int):
    """(confidence, lift, conviction) from raw absolute supports."""
    if supp_x == 0:
        raise ConstraintError("rule premise must have non-zero support")
    confidence = supp_xy / supp_x
    lift = (supp_xy * n_objects) / (supp_x * supp_y) if supp_y else 0.0
    if supp_xy == supp_x:
        conviction = math.inf
    else:
        conviction = (1.0 - supp_y / n_objects) / (1.0 - confidence)
    return confidence, lift, conviction


def _check_minconf(minconf) -> None:
    if not isinstance(minconf, (int, float)) or isinstance(minconf, bool) or not 0.0 < minconf <= 1.0:
        raise ConstraintError(f"minconf must be in (0, 1], got {minconf!r}")


def _rule(ctx: BinaryContext, premise: Itemset, consequent: Itemset, supp_xy: int, supp_x: int) -> AssociationRule:
    supp_y = ctx.support(consequent)
    if supp_x == 0:
        # exact implication over an empty extent: vacuously confident
        conf, lift, conv = 1.0, 0.0, math.inf
    else:
        conf, lift, conv = measures(ctx.n_objects, supp_xy, supp_x, supp_y)
    return AssociationRule(
        premise=ctx.itemset_labels(premise),
        consequent=ctx.itemset_labels(consequent),
        support=supp_xy,
        confidence=conf,
        lift=lift,
        conviction=conv,
    )


def _sort_rules(rules: list[AssociationRule]) -> list[AssociationRule]:
    rules.sort(key=lambda r: (-r.support, -r.confidence, r.premise, r.consequent))
    return rules


def _diff(whole: Itemset, part: Itemset) -> Itemset:
    part_set = set(part)
    return tuple(a for a in whole if a not in part_set)


def _closed_uppers(ctx: BinaryContext, minsup, reduced: bool = False):
    """The frequent classes, smallest closed set first as ``covers`` needs
    (rule lists are sorted afterwards), and per class the indices of the
    closed sets above it, or with ``reduced`` of its covers only."""
    classes, _ = _mine_class_list(ctx, minsup)
    supersets = superset_index([mask_of(c.closed_set) for c in classes])
    return classes, [covers(supersets, k) if reduced else bits_of(supersets(k)) for k in range(len(classes))]


def _confident_uppers(classes, uppers_of, minconf):
    """(class, upper) pairs from ``uppers_of`` with supp(upper) / supp(class) >= minconf."""
    for c, uppers in zip(classes, uppers_of):
        for k in uppers:
            if classes[k].support / c.support >= minconf:
                yield c, classes[k]


def _exact_rules(ctx: BinaryContext, closed_items: Itemset, supp: int, gens) -> list[AssociationRule]:
    """g -> closed\\g for each non-empty generator g other than the closed set."""
    return [_rule(ctx, g, _diff(closed_items, g), supp, supp) for g in gens if g and g != closed_items]


def all_rules(ctx: BinaryContext, minsup, minconf) -> list[AssociationRule]:
    """Every rule X -> Z\\X with Z frequent, X a non-empty proper subset,
    and confidence >= minconf."""
    _check_minconf(minconf)
    table = _levelwise(ctx, resolve_minsup(minsup, ctx.n_objects))
    out = []
    for z, supp_z in table.items():
        if len(z) < 2:
            continue
        for size in range(1, len(z)):
            for premise in combinations(z, size):
                supp_x = table[premise]
                if supp_z / supp_x >= minconf:
                    out.append(_rule(ctx, premise, _diff(z, premise), supp_z, supp_x))
    return _sort_rules(out)


def generic_basis(ctx: BinaryContext, minsup) -> list[AssociationRule]:
    """Exact rules g -> closure(g)\\g for every frequent non-empty
    generator with a proper closure; confidence is always 1."""
    classes, _ = _mine_class_list(ctx, minsup)
    return _sort_rules([rule for c in classes for rule in _exact_rules(ctx, c.closed_set, c.support, c.generators)])


def mnr_rules(ctx: BinaryContext, minsup, minconf, reduced: bool = False) -> list[AssociationRule]:
    """Minimal non-redundant rules: the generic basis plus approximate
    rules g -> f\\g from a generator g to a frequent closed set f
    strictly above closure(g).  With ``reduced`` set, f is restricted to
    the immediate successors (covers) of closure(g) in the closed-set
    containment order."""
    _check_minconf(minconf)
    classes, uppers_of = _closed_uppers(ctx, minsup, reduced)
    out = [rule for c in classes for rule in _exact_rules(ctx, c.closed_set, c.support, c.generators)]
    for c, f in _confident_uppers(classes, uppers_of, minconf):
        out += [_rule(ctx, g, _diff(f.closed_set, g), f.support, c.support) for g in c.generators if g]
    return _sort_rules(out)


def rare_rules(ctx: BinaryContext, minsup) -> list[AssociationRule]:
    """Exact rules g -> closure(g)\\g from the supported minimal rare
    itemsets g with a proper closure; their support lies in [1, minsup).

    The minimal rare itemsets are the failing candidates of the
    generator walk, and each is a generator (its subsets are frequent,
    so all have a larger support), so no generator test is needed."""
    _, rare = _mine_class_list(ctx, minsup)
    out = []
    for items, supp in rare:
        if supp:
            out += _exact_rules(ctx, ctx.closure(items), supp, [items])
    return _sort_rules(out)


def closed_rules(ctx: BinaryContext, minsup, minconf) -> list[AssociationRule]:
    """Rules X -> Y\\X between frequent closed sets X ⊊ Y, filtered by
    confidence."""
    _check_minconf(minconf)
    pairs = _confident_uppers(*_closed_uppers(ctx, minsup), minconf)
    return _sort_rules(
        [_rule(ctx, x.closed_set, _diff(y.closed_set, x.closed_set), y.support, x.support) for x, y in pairs]
    )


def duquenne_guigues(ctx: BinaryContext, max_attributes: int = 20) -> list[AssociationRule]:
    """The Duquenne-Guigues (stem) base: one exact implication
    P -> closure(P)\\P per pseudo-closed set P.

    Enumerates, in lectic order, the sets closed under saturation by the
    implications found so far (firing only on proper-subset premises);
    the non-closed ones among them are exactly the pseudo-closed sets.
    The threshold plays no role here.  Contexts wider than
    ``max_attributes`` are refused to bound the fixpoint computation.
    """
    check_width(ctx.n_attributes, max_attributes, "Duquenne-Guigues")
    implications: list[tuple[int, int]] = []

    def preclose(mask: int) -> int:
        changed = True
        while changed:
            changed = False
            for p, c in implications:
                if p & ~mask == 0 and p != mask and c & ~mask:
                    mask |= c
                    changed = True
        return mask

    ctx_closure = context_closure(ctx)
    # lazy: an implication found here already saturates the next set
    for a in lectic_closed(ctx.n_attributes, preclose):
        c = ctx_closure(a)
        if c != a:
            implications.append((a, c))
    out = []
    for p, c in sorted(implications, key=lambda pc: canonical(pc[0])):
        p_items = bits_of(p)
        supp = ctx.extent_mask(p_items).bit_count()
        out.append(_rule(ctx, p_items, bits_of(c & ~p), supp, supp))
    return out


# -- serialization ----------------------------------------------------------


def render_rules_text(rules: list[AssociationRule]) -> list[str]:
    """One line per rule, measures at 4 decimal places, infinite
    conviction rendered as ``inf``.  An empty premise renders as ``{}``."""
    out = []
    for r in rules:
        left = " ".join(r.premise) if r.premise else "{}"
        conv = "inf" if math.isinf(r.conviction) else f"{r.conviction:.4f}"
        out.append(
            f"{left} => {' '.join(r.consequent)} "
            f"(supp={r.support}; conf={r.confidence:.4f}; lift={r.lift:.4f}; conv={conv})"
        )
    return out


def render_rules_jsonl(rules: list[AssociationRule]) -> list[str]:
    """JSON-lines records; infinite conviction is stored as null."""
    return [
        json.dumps(
            {
                "premise": list(r.premise),
                "consequent": list(r.consequent),
                "support": r.support,
                "confidence": r.confidence,
                "lift": r.lift,
                "conviction": None if math.isinf(r.conviction) else r.conviction,
            }
        )
        for r in rules
    ]


def _field(rec: dict, key: str, valid):
    """``rec[key]`` if ``valid`` accepts it, else ValueError."""
    value = rec[key]
    if not valid(value):
        raise ValueError(f"bad {key}: {value!r}")
    return value


def _labels(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _finite_nonnegative(value) -> bool:
    # type() is not isinstance(): a JSON true is a bool, which is an int
    return type(value) in (int, float) and 0 <= value < math.inf


def parse_rules_jsonl(text: str) -> list[AssociationRule]:
    """Rules from the records of ``render_rules_jsonl``.  Records end at
    ``\\n``, ``\\r\\n`` or ``\\r`` (a raw U+2028 may sit inside a label).
    Premise and consequent must be lists of strings, the support an
    integer >= 0, the confidence in (0, 1], the lift finite and >= 0 and
    the conviction null or finite and >= 0; any bad record raises
    ParseError naming its line."""
    out = []
    for lineno, line in enumerate(_split_lines(text), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            conv = rec["conviction"]
            out.append(
                AssociationRule(
                    premise=tuple(_field(rec, "premise", _labels)),
                    consequent=tuple(_field(rec, "consequent", _labels)),
                    support=_field(rec, "support", lambda v: type(v) is int and v >= 0),
                    confidence=float(_field(rec, "confidence", lambda v: _finite_nonnegative(v) and 0 < v <= 1)),
                    lift=float(_field(rec, "lift", _finite_nonnegative)),
                    conviction=math.inf if conv is None else float(_field(rec, "conviction", _finite_nonnegative)),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ConstraintError) as exc:
            raise ParseError(f"bad rule record on line {lineno}: {exc}") from None
    return out

"""Filtering, ranking and highlighting of extracted rules."""

import re
from dataclasses import dataclass, field

from galmine.errors import ConstraintError
from galmine.rules import AssociationRule

MEASURES = ("support", "confidence", "lift", "conviction")
SIDES = ("premise", "consequent", "either")

RED = "\x1b[31m"
RESET = "\x1b[0m"


@dataclass(frozen=True)
class FilterSpec:
    """Conjunctive rule filter.

    Length windows are inclusive [min, max] pairs; the contain tests
    look at the side selected by ``side`` (premise, consequent, or
    either = their union).  All present clauses must hold."""

    premise_len: tuple[int, int] | None = None
    consequent_len: tuple[int, int] | None = None
    must_contain: frozenset[str] = field(default_factory=frozenset)
    must_not_contain: frozenset[str] = field(default_factory=frozenset)
    side: str = "either"

    def __post_init__(self):
        for window in (self.premise_len, self.consequent_len):
            if window is not None and window[0] > window[1]:
                raise ConstraintError(f"length window min exceeds max: {window}")
        if self.side not in SIDES:
            raise ConstraintError(f"side must be premise, consequent or either, got {self.side!r}")
        overlap = set(self.must_contain) & set(self.must_not_contain)
        if overlap:
            raise ConstraintError(f"contradictory filter: {sorted(overlap)} both required and forbidden")


def _side_tokens(rule: AssociationRule, side: str) -> set[str]:
    if side == "premise":
        return set(rule.premise)
    if side == "consequent":
        return set(rule.consequent)
    return set(rule.premise) | set(rule.consequent)


def filter_rules(rules: list[AssociationRule], spec: FilterSpec) -> list[AssociationRule]:
    """Rules satisfying every present clause, in their input order."""
    out = []
    for rule in rules:
        if spec.premise_len is not None and not spec.premise_len[0] <= len(rule.premise) <= spec.premise_len[1]:
            continue
        if spec.consequent_len is not None and not (
            spec.consequent_len[0] <= len(rule.consequent) <= spec.consequent_len[1]
        ):
            continue
        tokens = _side_tokens(rule, spec.side)
        if spec.must_contain and not spec.must_contain <= tokens:
            continue
        if spec.must_not_contain and spec.must_not_contain & tokens:
            continue
        out.append(rule)
    return out


def top_k(rules: list[AssociationRule], measure: str, k: int) -> list[AssociationRule]:
    """The k best rules by the measure; ties broken by (support desc,
    premise lex, consequent lex).  Infinite conviction outranks any
    finite value; k beyond the input size returns everything re-sorted."""
    if measure not in MEASURES:
        raise ConstraintError(f"measure must be one of {MEASURES}, got {measure!r}")
    if k < 0:
        raise ConstraintError(f"k must be >= 0, got {k}")
    ranked = sorted(rules, key=lambda r: (-getattr(r, measure), -r.support, r.premise, r.consequent))
    return ranked[:k]


def colorize(lines, targets, enabled: bool = True) -> list[str]:
    """Wrap each whole-token occurrence of a target attribute in red
    ANSI SGR codes.  Tokens are whitespace-delimited and must match a
    target exactly; disabled mode returns the lines unchanged."""
    lines = list(lines)
    if not enabled:
        return lines
    wanted = set(targets)
    out = []
    for line in lines:
        parts = re.split(r"(\s+)", line)
        out.append("".join(RED + p + RESET if p in wanted else p for p in parts))
    return out


def strip_color(text: str) -> str:
    return text.replace(RED, "").replace(RESET, "")

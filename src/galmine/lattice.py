"""Concept lattice construction and export.

A concept is a mutually closed (extent, intent) pair; the lattice holds
every concept plus the covering relation (the transitive reduction of
intent containment).  Construction enumerates the intents with
Next-Closure and takes as lower covers of each concept the minimal
intents strictly above its own, from their superset index.
"""

import json
from dataclasses import dataclass

from galmine._bitset import bits_of
from galmine.closures import canonical, check_width, context_closure, covers, lectic_closed, superset_index
from galmine.context import BinaryContext, Itemset, TidSet
from galmine.errors import ConstraintError

LABEL_MODES = ("full", "reduced")


@dataclass(frozen=True)
class Concept:
    extent: TidSet
    intent: Itemset


@dataclass(frozen=True)
class ConceptLattice:
    """Concepts ordered by (intent size asc, id-lex asc); cover edges are
    (upper, lower) index pairs, upper having the smaller intent."""

    concepts: tuple[Concept, ...]
    cover_edges: tuple[tuple[int, int], ...]
    object_labels: tuple[str, ...]
    attribute_labels: tuple[str, ...]


def build_lattice(ctx: BinaryContext, max_attributes: int = 20) -> ConceptLattice:
    """All concepts of the context, including the top (full extent) and
    the bottom (full intent, possibly empty extent)."""
    check_width(ctx.n_attributes, max_attributes, "lattice")
    closed_masks = sorted(lectic_closed(ctx.n_attributes, context_closure(ctx)), key=canonical)
    concepts = tuple(
        Concept(extent=bits_of(ctx.extent_mask(bits_of(c))), intent=bits_of(c)) for c in closed_masks
    )
    supersets = superset_index(closed_masks)
    edges = [(up, low) for up in range(len(closed_masks)) for low in covers(supersets, up)]
    return ConceptLattice(
        concepts=concepts,
        cover_edges=tuple(edges),
        object_labels=ctx.object_labels,
        attribute_labels=ctx.attribute_labels,
    )


def _braced(labels) -> str:
    """Brace-wrapped label list with DOT string escapes applied."""
    return "{" + " ".join(s.replace("\\", "\\\\").replace('"', '\\"') for s in labels) + "}"


def export_dot(lattice: ConceptLattice, label_mode: str = "full") -> str:
    """Render as a DOT digraph, edges pointing from upper to lower
    concept.  ``full`` labels each node with its intent and extent;
    ``reduced`` shows only the attributes and objects introduced at that
    node (attributes absent from every upper cover, objects absent from
    every lower cover)."""
    if label_mode not in LABEL_MODES:
        raise ConstraintError(f"label_mode must be 'full' or 'reduced', got {label_mode!r}")
    uppers: dict[int, list[int]] = {}
    lowers: dict[int, list[int]] = {}
    for up, low in lattice.cover_edges:
        uppers.setdefault(low, []).append(up)
        lowers.setdefault(up, []).append(low)
    lines = ["digraph lattice {", "  node [shape=box];"]
    for idx, concept in enumerate(lattice.concepts):
        if label_mode == "full":
            intent = [lattice.attribute_labels[j] for j in concept.intent]
            extent = [lattice.object_labels[i] for i in concept.extent]
        else:
            inherited_attrs = set()
            for up in uppers.get(idx, []):
                inherited_attrs.update(lattice.concepts[up].intent)
            inherited_objs = set()
            for low in lowers.get(idx, []):
                inherited_objs.update(lattice.concepts[low].extent)
            intent = [lattice.attribute_labels[j] for j in concept.intent if j not in inherited_attrs]
            extent = [lattice.object_labels[i] for i in concept.extent if i not in inherited_objs]
        label = _braced(intent) + "\\n" + _braced(extent)
        lines.append(f'  c{idx} [label="{label}"];')
    for up, low in lattice.cover_edges:
        lines.append(f"  c{up} -> c{low};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(lattice: ConceptLattice) -> str:
    return json.dumps(
        {
            "concepts": [
                {
                    "extent": [lattice.object_labels[i] for i in c.extent],
                    "intent": [lattice.attribute_labels[j] for j in c.intent],
                }
                for c in lattice.concepts
            ],
            "edges": [list(e) for e in lattice.cover_edges],
        }
    )

"""Binary contexts: the objects-by-attributes boolean tables everything
else operates on.

A context is immutable after construction.  Rows (per-object attribute
sets) and columns (per-attribute object sets) are kept as int bitmasks,
so the derivation operators are a handful of big-int ANDs.  Itemsets and
tidsets appear in the public API as strictly ascending tuples of ids.

Every context is built from its row masks by one path, ``_set_masks``:
parsers, ``discretize``, ``random_context`` and the transformations pass
masks to ``_from_masks``, and ``BinaryContext(...)`` turns its id lists
into masks first.  That path checks the labels and the row count, and
derives the columns by one transposition (``_bitset.transpose``).

Two text formats are supported:

* TAB: one object per line, whitespace-separated attribute tokens, lines
  starting with ``#`` are comments, blank lines are skipped.  Objects are
  labelled ``o1``, ``o2``, ... in input order; attributes are labelled by
  their tokens, ordered by first appearance.
* CXT (Burmeister-style): header line ``B``, blank line, object count,
  attribute count, blank line, object names, attribute names, then one
  matrix line per object made of ``.`` and ``X``.

Every input file, and standard input, is read by ``_read_input``: strict
UTF-8 with no newline translation, so each format alone decides where
its lines end.  TAB, CXT and CSV accept one leading UTF-8 BOM.

======================  ===============================================
input                   a line ends at
======================  ===============================================
TAB, rule JSON-lines,   ``\\n``, ``\\r\\n`` or ``\\r`` (``_split_lines``);
``post color`` text     U+0085, U+2028, ``\\x1c`` etc. stay in the line
CXT                     the line end after the leading ``B``: ``\\n``,
                        ``\\r\\n`` or ``\\r``; with ``\\n`` a ``\\r`` stays
                        in its label
CSV                     the ``csv`` module's rule (``newline=""``): a
                        ``\\n``, ``\\r\\n`` or ``\\r`` outside quotes
======================  ===============================================
"""

import sys
from dataclasses import dataclass

from galmine._bitset import bits_of, mask_of, transpose
from galmine.errors import ConstraintError, ParseError, UnknownLabelError

Itemset = tuple[int, ...]
TidSet = tuple[int, ...]


@dataclass(frozen=True)
class ContextStats:
    n_objects: int
    n_attributes: int
    ones: int
    density: float
    attribute_supports: tuple[int, ...]


class BinaryContext:
    """An immutable objects-by-attributes boolean table with named axes."""

    __slots__ = ("_object_labels", "_attribute_labels", "_row_masks", "_col_masks")

    def __init__(self, object_labels, attribute_labels, rows):
        """Build a context from per-object attribute-id collections.

        ``rows[i]`` lists the attribute ids object i possesses; ids must
        be in ``range(len(attribute_labels))``.  Labels must be pairwise
        distinct on each axis.  Duplicate ids within a row collapse.
        """
        attribute_labels = tuple(attribute_labels)
        m = len(attribute_labels)
        row_masks = []
        for row in rows:
            ids = tuple(row)
            if not all(0 <= j < m for j in ids):
                raise ConstraintError(f"attribute id out of range in row {len(row_masks)}")
            row_masks.append(mask_of(ids))
        self._set_masks(object_labels, attribute_labels, row_masks)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryContext is immutable")

    @classmethod
    def _from_masks(cls, object_labels, attribute_labels, row_masks, col_masks=None):
        ctx = cls.__new__(cls)
        ctx._set_masks(object_labels, attribute_labels, row_masks, col_masks)
        return ctx

    def _set_masks(self, object_labels, attribute_labels, row_masks, col_masks=None):
        """Check and store the labels and the row masks, each below
        ``1 << len(attribute_labels)``; the columns are derived unless given.
        Every context is built here."""
        object_labels, attribute_labels = tuple(object_labels), tuple(attribute_labels)
        for axis, labels in (("object", object_labels), ("attribute", attribute_labels)):
            if len(set(labels)) != len(labels):
                raise ConstraintError(f"{axis} labels must be pairwise distinct")
        if len(row_masks) != len(object_labels):
            raise ConstraintError("one row per object label required")
        if col_masks is None:
            col_masks = transpose(row_masks, len(attribute_labels))
        object.__setattr__(self, "_object_labels", object_labels)
        object.__setattr__(self, "_attribute_labels", attribute_labels)
        object.__setattr__(self, "_row_masks", tuple(row_masks))
        object.__setattr__(self, "_col_masks", tuple(col_masks))

    # -- basic shape ---------------------------------------------------

    @property
    def object_labels(self) -> tuple[str, ...]:
        return self._object_labels

    @property
    def attribute_labels(self) -> tuple[str, ...]:
        return self._attribute_labels

    @property
    def n_objects(self) -> int:
        return len(self._object_labels)

    @property
    def n_attributes(self) -> int:
        return len(self._attribute_labels)

    @property
    def rows(self) -> tuple[Itemset, ...]:
        """Per-object attribute ids, each strictly ascending."""
        return tuple(bits_of(m) for m in self._row_masks)

    @property
    def row_masks(self) -> tuple[int, ...]:
        """Per-object attribute bitmasks (bit j = attribute j)."""
        return self._row_masks

    @property
    def column_masks(self) -> tuple[int, ...]:
        """Per-attribute object bitmasks (bit i = object i)."""
        return self._col_masks

    def __eq__(self, other):
        if not isinstance(other, BinaryContext):
            return NotImplemented
        return (
            self._object_labels == other._object_labels
            and self._attribute_labels == other._attribute_labels
            and self._row_masks == other._row_masks
        )

    __hash__ = None

    def __repr__(self):
        return f"BinaryContext({self.n_objects}x{self.n_attributes})"

    def attribute_index(self, label: str) -> int:
        return _selected(self._attribute_labels, [label], "attribute")[0]

    def object_index(self, label: str) -> int:
        return _selected(self._object_labels, [label], "object")[0]

    def itemset_labels(self, items: Itemset) -> tuple[str, ...]:
        return tuple(self._attribute_labels[j] for j in items)

    # -- derivation operators -------------------------------------------

    @staticmethod
    def _check_ids(ids, n: int, axis: str):
        for i in ids:
            if not 0 <= i < n:
                raise ValueError(f"{axis} id out of range: {i}")

    def extent_mask(self, items) -> int:
        self._check_ids(items, self.n_attributes, "attribute")
        mask = (1 << self.n_objects) - 1
        for j in items:
            mask &= self._col_masks[j]
        return mask

    def extent(self, items) -> TidSet:
        """Objects possessing every listed attribute; all objects for the
        empty itemset."""
        return bits_of(self.extent_mask(items))

    def intent(self, tids) -> Itemset:
        """Attributes common to all listed objects; all attributes for
        the empty tidset."""
        self._check_ids(tids, self.n_objects, "object")
        return bits_of(self.closure_mask(mask_of(tids)))

    def closure(self, items) -> Itemset:
        """intent(extent(items)): the smallest closed superset.  For an
        itemset with empty extent this is the full attribute set."""
        return bits_of(self.closure_mask(self.extent_mask(items)))

    def closure_mask(self, extent_mask: int) -> int:
        mask = 0
        for j, col in enumerate(self._col_masks):
            if extent_mask & col == extent_mask:
                mask |= 1 << j
        return mask

    def support(self, items) -> int:
        """Number of objects whose row contains the itemset."""
        return self.extent_mask(items).bit_count()

    # -- structural transformations --------------------------------------

    def transpose(self) -> "BinaryContext":
        """Swap objects and attributes; cell (i, j) becomes cell (j, i)."""
        return BinaryContext._from_masks(self._attribute_labels, self._object_labels, self._col_masks, self._row_masks)

    def complement(self) -> "BinaryContext":
        """Negate every cell; labels unchanged."""
        full = (1 << self.n_attributes) - 1
        return BinaryContext._from_masks(
            self._object_labels, self._attribute_labels, [m ^ full for m in self._row_masks]
        )

    def project(self, keep_objects=None, keep_attributes=None, min_column_support=None) -> "BinaryContext":
        """Sub-context restricted to the given labels.

        ``keep_objects`` / ``keep_attributes`` are label collections
        (None keeps everything); axis order is preserved.  When
        ``min_column_support`` is given, attributes whose support after
        the object restriction falls below it are dropped as well.
        """
        obj_ids = _selected(self._object_labels, keep_objects, "object")
        attr_ids = _selected(self._attribute_labels, keep_attributes, "attribute")
        if min_column_support is not None:
            kept_obj_mask = mask_of(obj_ids)
            attr_ids = [
                j for j in attr_ids if (self._col_masks[j] & kept_obj_mask).bit_count() >= min_column_support
            ]
        kept = transpose([self._col_masks[j] for j in attr_ids], self.n_objects)
        return BinaryContext._from_masks(
            [self._object_labels[i] for i in obj_ids],
            [self._attribute_labels[j] for j in attr_ids],
            [kept[i] for i in obj_ids],
        )

    def stats(self) -> ContextStats:
        ones = sum(m.bit_count() for m in self._row_masks)
        cells = self.n_objects * self.n_attributes
        return ContextStats(
            n_objects=self.n_objects,
            n_attributes=self.n_attributes,
            ones=ones,
            density=ones / cells if cells else 0.0,
            attribute_supports=tuple(m.bit_count() for m in self._col_masks),
        )


def _selected(labels: tuple[str, ...], keep, axis: str) -> list[int]:
    """Ids of the ``labels`` in ``keep`` (all of them for None), in axis
    order; the first label of ``keep`` not on the axis raises
    UnknownLabelError."""
    if keep is None:
        return list(range(len(labels)))
    keep = list(keep)
    wanted = set(keep)
    unknown = wanted.difference(labels)
    if unknown:
        first = next(label for label in keep if label in unknown)
        raise UnknownLabelError(f"unknown {axis} label: {first!r}")
    return [i for i, label in enumerate(labels) if label in wanted]


# -- input text -----------------------------------------------------------


def _read_input(path: str) -> str:
    """The text of file ``path``, or of standard input for ``-``, decoded
    as strict UTF-8 with line ends untouched; a bad byte is a ParseError."""
    if path == "-":
        if sys.stdin is None:
            raise OSError("standard input is closed")
        path, data = "standard input", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by ``\\n``, ``\\r\\n`` or ``\\r`` only;
    a line end at the very end adds no empty line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


# -- TAB format -----------------------------------------------------------


def parse_tab(text: str) -> BinaryContext:
    """Parse TAB text.  Raises ParseError when no data line is present.

    There is no limit on line length or token count.
    """
    attr_order: dict[str, int] = {}
    rows = []
    for line in _split_lines(text.removeprefix("\ufeff")):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = 0
        for token in stripped.split():
            row |= 1 << attr_order.setdefault(token, len(attr_order))
        rows.append(row)
    if not rows:
        raise ParseError("TAB input contains no data lines")
    return BinaryContext._from_masks([f"o{i + 1}" for i in range(len(rows))], attr_order, rows)


def write_tab(ctx: BinaryContext) -> str:
    """Render as TAB: each row's attribute labels in label order.

    Labels containing whitespace or starting with ``#`` or a BOM cannot
    be represented in this format and raise ConstraintError.  Objects with
    no attributes would produce blank (skipped) lines and also raise, as
    does a context with no objects, which has no data line.
    """
    if not ctx.n_objects:
        raise ConstraintError("TAB cannot represent a context with no objects")
    for label in ctx.attribute_labels:
        if not label or label.split() != [label] or label.startswith(("#", "\ufeff")):
            raise ConstraintError(f"attribute label not representable in TAB: {label!r}")
    lines = []
    for mask in ctx.row_masks:
        if not mask:
            raise ConstraintError("TAB cannot represent an object with no attributes")
        lines.append(" ".join(ctx.attribute_labels[j] for j in bits_of(mask)))
    return "\n".join(lines) + "\n"


# -- CXT format -----------------------------------------------------------

_CXT_MARKS = str.maketrans("", "", ".X")
_CXT_BITS = str.maketrans(".X", "01")


def parse_cxt(text: str) -> BinaryContext:
    text = text.removeprefix("\ufeff")
    if text.startswith("B\r"):
        # CRLF or CR line ends; a file with LF line ends keeps any "\r" in its labels
        text = text.replace("\r\n" if text.startswith("B\r\n") else "\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 5 or lines[0] != "B":
        raise ParseError("CXT input must start with a 'B' line")
    if lines[1] != "":
        raise ParseError("CXT line 2 must be blank")
    try:
        n = int(lines[2])
        m = int(lines[3])
    except ValueError:
        raise ParseError("CXT object/attribute counts must be integers") from None
    if n < 0 or m < 0:
        raise ParseError("CXT counts must be non-negative")
    if lines[4] != "":
        raise ParseError("CXT line 5 must be blank")
    expected = 5 + n + m + n
    if len(lines) != expected:
        raise ParseError(f"CXT declares {n} objects and {m} attributes but has {len(lines)} lines, expected {expected}")
    matrix = lines[5 + n + m :]
    for k, line in enumerate(matrix):
        if len(line) != m:
            raise ParseError(f"CXT matrix line {k + 1} has {len(line)} characters, expected {m}")
        invalid = line.translate(_CXT_MARKS)
        if invalid:
            raise ParseError(f"CXT matrix line {k + 1} contains invalid character {invalid[0]!r}")
    rows = [int(line[::-1].translate(_CXT_BITS) or "0", 2) for line in matrix]
    try:
        return BinaryContext._from_masks(lines[5 : 5 + n], lines[5 + n : 5 + n + m], rows)
    except ConstraintError:  # a repeated label, the one check left to fail
        axis = "object" if len(set(lines[5 : 5 + n])) != n else "attribute"
        raise ParseError(f"CXT {axis} names must be distinct") from None


def write_cxt(ctx: BinaryContext) -> str:
    """Render as CXT with ``\\n`` line ends.  A label holding ``\\n``
    cannot be represented and raises ConstraintError; a ``\\r`` stays
    in its label, as ``parse_cxt`` reads it back."""
    for label in ctx.object_labels + ctx.attribute_labels:
        if "\n" in label:
            raise ConstraintError(f"label not representable in CXT: {label!r}")
    lines = ["B", "", str(ctx.n_objects), str(ctx.n_attributes), ""]
    lines.extend(ctx.object_labels)
    lines.extend(ctx.attribute_labels)
    m = ctx.n_attributes
    # bit j is character j from the right; with m == 0 the format still gives "0"
    lines.extend(f"{mask:0{m}b}"[::-1].replace("0", ".").replace("1", "X") if m else "" for mask in ctx.row_masks)
    return "\n".join(lines) + "\n"

"""Seeded input generators and the command list of each workload.

The generators write their files directly and do not import galmine, so
``setup_s`` measures the benchmark's own set-up and not the program.  The
program receives only the generated files.
"""

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

# The tall-sparse and lattice-dg contexts are ``random_context(GenSpec(rows,
# cols, density, seed=BASE))`` (galmine's documented cell order: row-major,
# one ``random.Random(BASE).random() < density`` draw per cell).  The workload
# seed permutes objects and attributes and leaves the draw itself fixed: a
# fresh draw moves the lattice size by +-15% between seeds (4,814 to 6,398
# concepts at 120x20), which is more than the bound the timings are held to.
# Permuting keeps every count exact while the enumeration order, the labels
# and every output byte still change with the seed.  Seed 0 keeps the draw in
# its original order.
TALL_BASE_SEED = 7
LATTICE_BASE_SEED = 3


def bernoulli_rows(rows: int, cols: int, density: float, base_seed: int) -> list[list[int]]:
    rng = random.Random(base_seed)
    return [[j for j in range(cols) if rng.random() < density] for _ in range(rows)]


def permuted(rows: list[list[int]], cols: int, seed: int):
    """(row order, column order) for the seed; identity for seed 0."""
    row_order = list(range(len(rows)))
    col_order = list(range(cols))
    if seed:
        rng = random.Random(seed)
        rng.shuffle(row_order)
        rng.shuffle(col_order)
    return row_order, col_order


def write_cxt(path: Path, rows: list[list[int]], cols: int, seed: int) -> None:
    """Burmeister CXT; attribute k of the file is original column col_order[k]."""
    row_order, col_order = permuted(rows, cols, seed)
    position = {j: k for k, j in enumerate(col_order)}
    lines = ["B", "", str(len(rows)), str(cols), ""]
    lines += [f"o{i + 1}" for i in row_order]
    lines += [f"a{j + 1}" for j in col_order]
    for i in row_order:
        cells = ["."] * cols
        for j in rows[i]:
            cells[position[j]] = "X"
        lines.append("".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_tab(path: Path, rows: list[list[int]], cols: int, seed: int) -> None:
    """TAB, one object per line; attribute ids follow first appearance, so
    the seed's row and column order decide them."""
    row_order, col_order = permuted(rows, cols, seed)
    position = {j: k for k, j in enumerate(col_order)}
    lines = []
    for i in row_order:
        if not rows[i]:
            raise ValueError("TAB cannot hold an object with no attributes")
        lines.append(" ".join(f"a{j + 1}" for j in sorted(rows[i], key=position.__getitem__)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def allocate(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` in proportion to ``weights``."""
    scale = total / sum(weights)
    quota = [w * scale for w in weights]
    counts = [int(q) for q in quota]
    by_remainder = sorted(range(len(weights)), key=lambda k: (counts[k] - quota[k], k))
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return counts


def planted_rows(seed: int, rows=5000, cols=30, patterns=8, size=6, decay=0.9, noise=0.01):
    """Quest-style planted patterns (Agrawal & Srikant, VLDB 1994).

    Pattern k covers attribute positions 3k..3k+5, so neighbours share two
    attributes; positions 27..29 belong to no pattern.  Each row is the union
    of two distinct patterns; pattern k has weight exp(-decay*k).  Each
    pattern instance is either whole (weight 0.4) or misses one of its first
    three attributes (0.2 each), which splits pattern supports into nested
    closed sets.  Noise sets each cell of the three pattern-free columns with
    probability ``noise``; at 2% minsup these columns never become frequent.

    The number of rows of each kind (pattern pair x instance variants) is
    exact, by largest remainder: a single row more or less decides whether a
    set is closed, and with independent draws |C| moved by +-7% between
    seeds, so the O(C^2) bases moved by twice that.  The seed shuffles the
    row order and the attribute ids and places the noise.
    """
    rng = random.Random(seed)
    perm = list(range(cols))
    rng.shuffle(perm)
    pats = [[perm[3 * k + t] for t in range(size)] for k in range(patterns)]
    noise_cols = sorted(set(range(cols)) - {a for p in pats for a in p})
    variants = [(tuple(range(size)), 0.4)] + [
        (tuple(t for t in range(size) if t != d), 0.2) for d in range(3)
    ]
    kinds, weights = [], []
    for a in range(patterns):
        for b in range(patterns):
            if a == b:
                continue
            for va, wa in variants:
                for vb, wb in variants:
                    kinds.append((a, va, b, vb))
                    weights.append(math.exp(-decay * (a + b)) * wa * wb)
    drawn = [kind for kind, n in zip(kinds, allocate(rows, weights)) for _ in range(n)]
    rng.shuffle(drawn)
    out = []
    for a, va, b, vb in drawn:
        row = {pats[a][t] for t in va} | {pats[b][t] for t in vb}
        row.update(j for j in noise_cols if rng.random() < noise)
        out.append(sorted(row))
    return out


def write_numeric_csv(path: Path, seed: int, rows=50000, cols=12) -> None:
    """Column j = (j mod 3) * z + e with standard normal z (one per row) and
    e (one per cell): columns of three kinds, uncorrelated, correlated and
    strongly correlated with the row's z."""
    rng = random.Random(seed)
    gauss = rng.gauss
    lines = [",".join(f"x{j + 1}" for j in range(cols))]
    for _ in range(rows):
        z = gauss(0.0, 1.0)
        lines.append(",".join(f"{(j % 3) * z + gauss(0.0, 1.0):.6f}" for j in range(cols)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


TINY_TAB = "a b\nb c\n"

# name -> galmine CLI arguments; IN is the workload's input file, M its minsup.
COMMANDS = {
    "mine_fi": ["mine", "--minsup", "M", "IN"],
    "mine_fci": ["mine", "--set", "fci", "--minsup", "M", "IN"],
    "mine_dfs": ["mine", "--strategy", "dfs", "--minsup", "M", "IN"],
    "rules_all": ["rules", "--basis", "all", "--minsup", "M", "--minconf", "0.9", "--format", "json", "IN"],
    "rules_mnr": ["rules", "--basis", "mnr", "--minsup", "M", "--minconf", "0.7", "--format", "json", "IN"],
    "rules_closed": ["rules", "--basis", "closed", "--minsup", "M", "--minconf", "0.7", "IN"],
    "post_topk": ["post", "topk", "rules_mnr.out", "--top", "100", "--by", "lift"],
    "lattice": ["lattice", "IN"],
    "rules_dg": ["rules", "--basis", "dg", "IN"],
    "pre_discretize": ["pre", "discretize", "IN", "--bins", "3", "--binning", "freq"],
    "pre_transpose": ["pre", "transpose", "pre_discretize.out", "--in-format", "tab", "--out-format", "cxt"],
}


def shape(rows: list[list[int]], cols: int) -> dict:
    ones = sum(len(r) for r in rows)
    return {"objects": len(rows), "attributes": cols, "density": ones / (len(rows) * cols)}


def make_tall_sparse(seed: int, path: Path) -> dict:
    rows = bernoulli_rows(100000, 30, 0.1, TALL_BASE_SEED)
    write_cxt(path, rows, 30, seed)
    return shape(rows, 30)


def make_planted(seed: int, path: Path) -> dict:
    rows = planted_rows(seed)
    write_tab(path, rows, 30, 0)
    return shape(rows, 30)


def make_lattice(seed: int, path: Path) -> dict:
    rows = bernoulli_rows(120, 20, 0.4, LATTICE_BASE_SEED)
    write_tab(path, rows, 20, seed)
    return shape(rows, 20)


def make_ingest(seed: int, path: Path) -> dict:
    write_numeric_csv(path, seed)
    return {"objects": 50000, "columns": 12}


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, Path], dict]  # writes the input file, returns its shape
    input_name: str
    minsup: str
    commands: tuple[str, ...]
    # commands run once per run, before the timed passes, only to check output
    checks: tuple[str, ...] = ()

    def argv(self, command: str) -> list[str]:
        subst = {"IN": self.input_name, "M": self.minsup}
        return [subst.get(a, a) for a in COMMANDS[command]]

    def make_inputs(self, seed: int, work: Path) -> dict:
        return self.make(seed, work / self.input_name)


WORKLOADS = {
    w.name: w
    for w in (
        # mine_fi only as a check: with it a pass takes ~12 s and a 30 s run
        # gets one or two passes, whose median spread by 22% across seeds
        Workload(
            "tall-sparse", make_tall_sparse, "context.cxt", "1%", ("mine_fci", "mine_dfs"), checks=("mine_fi",)
        ),
        Workload(
            "planted-rules",
            make_planted,
            "context.tab",
            "2%",
            ("mine_dfs", "rules_all", "rules_mnr", "rules_closed", "post_topk"),
            checks=("mine_fi",),
        ),
        Workload("lattice-dg", make_lattice, "context.tab", "1", ("lattice", "rules_dg")),
        Workload("ingest", make_ingest, "table.csv", "1", ("pre_discretize", "pre_transpose")),
    )
}

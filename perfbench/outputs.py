"""Seed-invariant facts of a command's stdout.

The workload seed relabels attributes and reorders objects, so the bytes of
an output change with the seed but its shape does not.  ``facts`` reduces a
stdout to that shape: its line count, a few counts per format, and for most
formats a ``profile``, the sha256 of the output with every label masked and
the lines sorted.  ``digests.json`` records the facts of each command, which are checked
at every seed, and the plain sha256 of each stdout at seed 0.

To record them again after an intended output change, run every workload at
seed 0 and print the facts of its outputs:

    python3 perfbench/outputs.py .perfbench_work/<workload>/*.out

then copy the values into ``digests.json`` by hand.
"""

import hashlib
import json
import sys
from pathlib import Path

# command name -> the format of its stdout
FORMATS = {
    "mine_fi": "itemsets",
    "mine_fci": "itemsets",
    "mine_dfs": "itemsets",
    "rules_all": "rules_jsonl",
    "rules_mnr": "rules_jsonl",
    "post_topk": "ranked_jsonl",
    "rules_closed": "rules_text",
    "rules_dg": "rules_text",
    "lattice": "lattice_json",
    "pre_discretize": "tab",
    "pre_transpose": "cxt",
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def _mask_text(line: str) -> str:
    """``a1 a4 => a6 (supp=...)`` -> ``2 => 1 (supp=...)``."""
    labels, _, stats = line.rpartition(" (")
    sides = [str(len(side.split())) for side in labels.split(" => ")]
    return " => ".join(sides) + " (" + stats


def _mask_json(record: dict) -> str:
    return json.dumps({k: len(v) if isinstance(v, list) else v for k, v in record.items()}, sort_keys=True)


def facts(command: str, data: bytes) -> dict:
    """The facts of ``command``'s stdout that do not depend on the seed."""
    text = data.decode("utf-8")
    lines = text.splitlines()
    out = {"lines": len(lines)}
    fmt = FORMATS[command]
    if fmt in ("itemsets", "rules_text"):
        out["profile"] = _digest(_mask_text(line) for line in lines)
    elif fmt == "rules_jsonl":
        out["profile"] = _digest(_mask_json(json.loads(line)) for line in lines)
    elif fmt == "ranked_jsonl":
        # rules tied on (lift, support) are ranked by their labels, so only
        # the ranking keys of the chosen rules are the same for every seed
        out["profile"] = _digest(f"{r['lift']!r} {r['support']}" for r in map(json.loads, lines))
    elif fmt == "lattice_json":
        lattice = json.loads(text)
        concepts = lattice["concepts"]
        out["concepts"] = len(concepts)
        out["edges"] = len(lattice["edges"])
        sizes = [(len(c["extent"]), len(c["intent"])) for c in concepts]
        out["profile"] = _digest(f"{sizes[a]} {sizes[b]}" for a, b in lattice["edges"])
    elif fmt == "tab":
        out["profile"] = _digest(str(len(line.split())) for line in lines)
    elif fmt == "cxt":
        objects, attributes = int(lines[2]), int(lines[3])
        out["objects"], out["attributes"] = objects, attributes
        # ties at a bin edge move an object between bins, so the crosses of
        # one row change with the seed; their total does not
        out["crosses"] = sum(row.count("X") for row in lines[5 + objects + attributes :])
    return out


def main(paths: list[str]) -> None:
    """Print each file's facts and sha256, keyed by command name."""
    recorded = {}
    for path in map(Path, paths):
        data = path.read_bytes()
        recorded[path.stem] = {**facts(path.stem, data), "sha256": hashlib.sha256(data).hexdigest()}
    print(json.dumps(recorded, indent=2, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])

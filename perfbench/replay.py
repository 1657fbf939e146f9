"""In-process replay of a workload's commands through galmine's public API.

Each command is re-run as the library calls the CLI makes, and returns the
exact bytes the CLI writes to stdout, so the replay can be checked against
the subprocess run.  With tracing on, every call is wrapped in a span (name,
start, end, parent, pass id); spans stay in memory until the run writes them
out.  Probes are extra calls that isolate one layer (for instance the support
table alone, or ``BinaryContext`` on already parsed rows); they run only in
traced passes, outside the command spans, so the traced command time stays
comparable with the untraced replay.  ``parse_tab`` and ``parse_cxt`` build
the context they return, so their spans include a ``BinaryContext(...)``;
the build probe follows every such parse, and the parse layer is reported
as parse minus build.
"""

import time
from pathlib import Path

import galmine
from galmine import miner, rules

# span name -> layer group reported in the per-layer metrics
LAYER = {
    "context.parse_tab": "parse",
    "context.parse_cxt": "parse",
    "preprocess.parse_csv": "parse",
    "rules.parse_jsonl": "parse",
    "context.build": "build",
    "miner.mine_frequent.dfs": "compute",
    "miner.mine_closed": "compute",
    "rules.all": "compute",
    "rules.mnr": "compute",
    "rules.closed": "compute",
    "rules.dg": "compute",
    "postprocess.topk": "compute",
    "lattice.build": "compute",
    "preprocess.discretize": "compute",
    "context.transpose": "compute",
    "miner.render_text": "render",
    "rules.render_jsonl": "render",
    "rules.render_text": "render",
    "lattice.export_json": "render",
    "context.write_tab": "render",
    "context.write_cxt": "render",
}


class Tracer:
    """Spans as [name, start, end, parent index, pass id]; off = plain calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = 0

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        parent = self.stack[-1] if self.stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def self_times(self, pass_id: int) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed by name."""
        own = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child[parent] += end - start
        for idx, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                own[name] = own.get(name, 0.0) + (end - start) - child[idx]
        return own


def _lines(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _minsup(text: str):
    return float(text[:-1]) / 100.0 if text.endswith("%") else int(text)


class Replay:
    """Replays commands of one workload in ``work``; counts what it sees."""

    def __init__(self, workload, work: Path, tracer: Tracer):
        self.w = workload
        self.work = work
        self.t = tracer
        self.minsup = _minsup(workload.minsup)
        self.counts: dict[str, float] = {}
        self.probed: set[str] = set()
        self.pending: list[tuple] = []

    def _read(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8")

    def _context(self, name: str, fmt: str):
        parse = galmine.parse_cxt if fmt == "cxt" else galmine.parse_tab
        return self.t.call(f"context.parse_{fmt}", parse, self._read(name))

    def _input(self):
        return self._context(self.w.input_name, self.w.input_name.rsplit(".", 1)[1])

    def _probe(self, name: str, fn, args, done=None) -> None:
        """Queue an isolating call to run after the command span, once per
        traced pass; ``args`` may be a callable, so that preparing them is
        not timed."""
        if self.t.enabled and name not in self.probed:
            self.probed.add(name)
            self.pending.append((name, fn, args, done))

    def start_pass(self, pass_id: int) -> None:
        self.t.pass_id = pass_id
        self.probed.clear()

    def run(self, command: str) -> bytes:
        """The stdout bytes of ``galmine <command>``, computed in-process."""
        self.pending = []
        out = self.t.call(f"cmd.{command}", getattr(self, command))
        for name, fn, args, done in self.pending:
            result = self.t.call(name, fn, *(args() if callable(args) else args))
            if done is not None:
                done(result)
        return out

    def finish_pass(self) -> None:
        closed = self.counts.get("miner.classes")
        if "rules.closed" in self.counts and closed:
            self.counts["rules.closed_pair_yield"] = self.counts["rules.closed"] / closed**2

    # -- probes shared by several commands ---------------------------------

    def _probe_context(self, ctx) -> None:
        """Rebuild the context just parsed; after every parse, not once."""

        def args():
            return ctx.object_labels, ctx.attribute_labels, ctx.rows

        if self.t.enabled:
            self.pending.append(("context.build", galmine.BinaryContext, args, None))

    def _mining_probes(self, ctx, sets) -> None:
        for strategy in miner.STRATEGIES:
            self._probe(f"miner.table_{strategy}", miner.frequent_support_table, (ctx, self.minsup, strategy))

        def count(rare):
            frequent = len(sets)
            closed = sum(s.is_closed for s in sets)
            self.counts.update(
                {
                    "miner.frequent": frequent,
                    "miner.closed": closed,
                    "miner.generators": sum(s.is_generator for s in sets),
                    "miner.minimal_rare": len(rare),
                    "miner.candidate_yield": frequent / (frequent + len(rare)),
                    "miner.closed_ratio": closed / frequent if frequent else 0.0,
                }
            )

        self._probe("miner.minimal_rare", galmine.mine_minimal_rare, (ctx, self.minsup), count)

    def _classes_probe(self, ctx) -> None:
        def count(classes):
            self.counts["miner.classes"] = len(classes)

        self._probe("miner.classes", galmine.mine_equivalence_classes, (ctx, self.minsup), count)

    # -- one method per command in workloads.COMMANDS ----------------------

    def mine_dfs(self) -> bytes:
        ctx = self._input()
        self._probe_context(ctx)
        sets = self.t.call("miner.mine_frequent.dfs", galmine.mine_frequent, ctx, self.minsup, "dfs")
        out = self.t.call("miner.render_text", miner.render_itemsets_text, sets, ctx.attribute_labels)
        self._mining_probes(ctx, sets)
        return _lines(out)

    def mine_fci(self) -> bytes:
        ctx = self._input()
        self._probe_context(ctx)
        sets = self.t.call("miner.mine_closed", galmine.mine_closed, ctx, self.minsup)
        out = self.t.call("miner.render_text", miner.render_itemsets_text, sets, ctx.attribute_labels)
        self._classes_probe(ctx)
        return _lines(out)

    def _rules(self, name: str, fn, args, render: str):
        ctx = self._input()
        self._probe_context(ctx)
        found = self.t.call(f"rules.{name}", fn, ctx, *args)
        renderer = rules.render_rules_jsonl if render == "jsonl" else rules.render_rules_text
        out = self.t.call(f"rules.render_{render}", renderer, found)
        if self.t.enabled:
            self.counts[f"rules.{name}"] = len(found)
        return ctx, _lines(out)

    def rules_all(self) -> bytes:
        ctx, out = self._rules("all", galmine.all_rules, (self.minsup, 0.9), "jsonl")
        self._probe("miner.table_levelwise", miner.frequent_support_table, (ctx, self.minsup, "levelwise"))
        return out

    def rules_mnr(self) -> bytes:
        ctx, out = self._rules("mnr", galmine.mnr_rules, (self.minsup, 0.7), "jsonl")
        self._classes_probe(ctx)
        return out

    def rules_closed(self) -> bytes:
        ctx, out = self._rules("closed", galmine.closed_rules, (self.minsup, 0.7), "text")
        self._classes_probe(ctx)
        return out

    def rules_dg(self) -> bytes:
        return self._rules("dg", galmine.duquenne_guigues, (), "text")[1]

    def post_topk(self) -> bytes:
        parsed = self.t.call("rules.parse_jsonl", rules.parse_rules_jsonl, self._read("rules_mnr.out"))
        best = self.t.call("postprocess.topk", galmine.top_k, parsed, "lift", 100)
        return _lines(self.t.call("rules.render_jsonl", rules.render_rules_jsonl, best))

    def lattice(self) -> bytes:
        ctx = self._input()
        self._probe_context(ctx)
        lat = self.t.call("lattice.build", galmine.build_lattice, ctx)
        out = self.t.call("lattice.export_json", galmine.export_json, lat)
        if self.t.enabled:
            self.counts["lattice.concepts"] = len(lat.concepts)
            self.counts["lattice.edges"] = len(lat.cover_edges)
        return (out + "\n").encode("utf-8")

    def pre_discretize(self) -> bytes:
        table = self.t.call("preprocess.parse_csv", galmine.parse_csv, self._read(self.w.input_name))
        spec = galmine.BinningSpec(strategy="freq", bin_count=3)
        ctx = self.t.call("preprocess.discretize", galmine.discretize, table, spec)
        return self.t.call("context.write_tab", galmine.write_tab, ctx).encode("utf-8")

    def pre_transpose(self) -> bytes:
        ctx = self._context("pre_discretize.out", "tab")
        self._probe_context(ctx)
        flipped = self.t.call("context.transpose", ctx.transpose)
        return self.t.call("context.write_cxt", galmine.write_cxt, flipped).encode("utf-8")

"""End-to-end benchmark of the galmine command line.

    python3 perfbench/run.py --workload planted-rules --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
Each workload writes its seeded inputs, then runs its fixed list of
``python -m galmine ...`` commands as subprocesses, one at a time, in passes
until ``--seconds`` are used up.  ``--trace 1`` instead runs every command once
as a subprocess and then replays the same commands in-process through the
public library API, alternating untraced and traced passes; the traced pass
records a span around each library call.

Report lines go to stdout first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
and spans go to ``.perfbench_work/`` in the checkout.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from outputs import facts
from workloads import TINY_TAB, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Set-up samples at the start and again after every pass, so that their
# median spans the run like the command timings.
SETUP_FIRST = (3, 0.5)  # (at least this many samples, and at least this long)
SETUP_PER_PASS = (1, 0.2)
# A sample repeats the set-up until this long has passed and takes the mean,
# so that a set-up of a millisecond is not one timer reading.
SETUP_BATCH_S = 0.05
# reference() of the allocating loop, which the set-up is timed against, on
# the machine the bounds were set on (2-vCPU Xeon VM, Python 3.11): setup_s
# is reported in seconds at that speed.
REF_NOMINAL_S = 0.020
STARTUP_REPEATS = 5  # the smallest CLI call, for cli.startup_s
RUN_LIMIT_S = 170  # hard stop below the 180 s a run may take


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout()


def _serve(requests, responses) -> None:
    """The launcher's loop: a JSON request per line in (argv, cwd, env,
    stdout and stderr paths, time limit), a JSON result per line out.  One
    child at a time; a child that outlives its time limit is killed."""
    signal.signal(signal.SIGALRM, _alarm)
    for line in requests:
        req = json.loads(line)
        killed = False
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err, env=req["env"])
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except CommandTimeout:
                killed = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        result = {
            "rc": os.waitstatus_to_exitcode(status),
            "killed": killed,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }
        responses.write(json.dumps(result) + "\n")
        responses.flush()


class Launcher:
    """Starts the children from a process forked while the benchmark is
    still small.

    Linux carries a process's peak RSS across exec, and Python spawns with
    vfork, so a child's ``ru_maxrss`` is at least the peak RSS of the
    process that started it.  Started by the benchmark itself, a small
    child would report the benchmark's own peak, which the input generators
    and the output checks drive up."""

    def __init__(self):
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(resp_r)
            code = 1
            try:
                with os.fdopen(req_r) as requests, os.fdopen(resp_w, "w") as responses:
                    _serve(requests, responses)
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(resp_w)
        self.requests = os.fdopen(req_w, "w")
        self.responses = os.fdopen(resp_r)

    def run(self, argv: list[str], cwd: Path, env: dict, out: Path, err: Path, timeout: float) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "out": str(out), "err": str(err), "timeout": timeout}
        self.requests.write(json.dumps(request) + "\n")
        self.requests.flush()
        line = self.responses.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        return json.loads(line)

    def close(self) -> None:
        """Let the launcher finish its child, then wait for it to end."""
        self.requests.close()
        self.responses.close()
        os.waitpid(self.pid, 0)


class Cli:
    """Runs ``python -m galmine`` children one at a time and keeps per-call
    samples: wall time, exit code, peak RSS and CPU time from ``os.wait4``.

    Also keeps the score: runs per command name, and the defects found.
    Every run of a command with a defect counts as failed."""

    def __init__(self, work: Path, deadline: float, launcher: Launcher):
        self.work = work
        self.deadline = deadline
        self.launcher = launcher
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.runs: Counter[str] = Counter()
        self.failures: list[tuple[str, str]] = []
        self.peak_rss_mb = 0.0

    def run(self, name: str, argv: list[str]) -> dict:
        out_path = self.work / f"{name}.out"
        err_path = self.work / f"{name}.err"
        remaining = self.deadline - time.monotonic()
        self.runs[name] += 1
        if remaining <= 0:
            self.fail(name, "not run, run time limit reached")
            raise CommandTimeout()
        result = self.launcher.run(
            [sys.executable, "-m", "galmine", *argv], self.work, self.env, out_path, err_path, remaining
        )
        if result["killed"]:
            self.fail(name, "killed, run time limit reached")
            raise CommandTimeout()
        rc = result["rc"]
        self.peak_rss_mb = max(self.peak_rss_mb, result["rss_mb"])
        if rc != 0:
            self.fail(name, f"exit {rc}: {err_path.read_text(errors='replace')[-300:]}")
        data = out_path.read_bytes()
        return {
            "rc": rc,
            "wall": result["wall"],
            "cpu": result["cpu"],
            "rss_mb": result["rss_mb"],
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "lines": data.count(b"\n"),
        }

    def fail(self, name: str, message: str) -> None:
        self.failures.append((name, message))

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.runs[name] for name in {name for name, _ in self.failures})


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    kernel_dir = SRC / "galmine" / "_kernel"
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "bitcore_compiled": any(kernel_dir.glob("_bitcore*.so")) or any(kernel_dir.glob("_bitcore*.pyd")),
    }


def setup(workload, seed: int, work: Path, samples: int, min_s: float) -> list[tuple[float, float]]:
    """Set-up samples, at least ``samples`` of them and until ``min_s`` have
    passed.  Each is (seconds of one set-up, that ÷ reference): the mean of a
    batch of ``SETUP_BATCH_S``, divided by the mean of the reference taken
    before and after the batch.  The generators allocate, so the reference
    is the allocating loop for every workload."""
    out = []
    spent = 0.0
    ref = best_of_three(_allocating_loop)
    while len(out) < samples or spent < min_s:
        start = time.perf_counter()
        count = 0
        while not count or time.perf_counter() - start < SETUP_BATCH_S:
            workload.make_inputs(seed, work)
            count += 1
        elapsed = time.perf_counter() - start
        spent += elapsed
        ref_after = best_of_three(_allocating_loop)
        out.append((elapsed / count, elapsed / count / ((ref + ref_after) / 2)))
        ref = ref_after
    return out


def check_outputs(workload, seed: int, samples: dict[str, list[dict]], cli: Cli) -> None:
    """Count output defects as failed commands: passes that disagree, facts
    that differ from ``digests.json`` (at every seed), a sha256 that differs
    from it (at seed 0), levelwise and dfs that differ."""
    recorded = json.loads(DIGESTS.read_text())[workload.name]
    for name, runs in samples.items():
        digests = {r["sha256"] for r in runs if r["rc"] == 0}
        if len(digests) > 1:
            cli.fail(name, "stdout differs between passes")
        if not digests:
            continue
        expected = dict(recorded[name])
        sha256 = expected.pop("sha256")
        if seed == 0 and digests != {sha256}:
            cli.fail(name, "stdout differs from the recorded sha256 for seed 0")
        found = facts(name, (cli.work / f"{name}.out").read_bytes())
        for key, value in expected.items():
            if found.get(key) != value:
                cli.fail(name, f"{key} is {found.get(key)}, recorded {value}")
    if "mine_fi" in samples and "mine_dfs" in samples:
        if samples["mine_fi"][0]["sha256"] != samples["mine_dfs"][0]["sha256"]:
            cli.fail("mine_dfs", "stdout differs from mine_fi")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(values: list[float]) -> str:
    return f"median {statistics.median(values):.4f} (n={len(values)}, min {min(values):.4f}, max {max(values):.4f})"


def _allocating_loop() -> None:
    pairs = [((i * 7919) % 100003, i) for i in range(40000)]
    pairs.sort()
    sum(k & v for k, v in dict(pairs).items())


def _arithmetic_loop() -> None:
    acc = 0
    for i in range(150000):
        acc += (i * 7919) % 100003 & i


def best_of_three(loop) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return min(times)


def reference() -> tuple[float, float]:
    """Seconds of two fixed CPython loops that do not touch galmine, each the
    fastest of three runs: (allocating, arithmetic-only).

    On the shared VM the bounds were set on, the raw wall time of a 30 s run
    spread by 10-32% (IQR / median) across seeds.  Slow spells of a few
    seconds made the allocating loop up to 1.7x slower and the arithmetic
    loop 1.1x.  Divided by the first alone, the allocation-heavy workloads
    spread by 4-12%, but lattice-dg, whose time goes to small-int mask loops,
    by 17-19%; divided by the second alone, lattice-dg spread by 6% and
    tall-sparse by 12%.  Commands are divided by the geometric mean of the
    two, which held both of those at 8-9%."""
    return best_of_three(_allocating_loop), best_of_three(_arithmetic_loop)


def run_e2e(workload, seed: int, seconds: int, work: Path, cli: Cli, setup_samples: list[tuple[float, float]]):
    """Check commands first, then passes over the workload's commands until
    ``seconds`` are used, not counting the set-ups between passes; a pass is
    not started when the slowest pass so far says it would overrun.  The
    reference runs before and after every timed command, and each wall time
    is also divided by the mean of the two, per loop."""
    cli.run("startup", ["stats", "tiny.tab"])  # compiles bytecode before timing
    started = time.monotonic()
    samples = {name: [cli.run(name, workload.argv(name))] for name in workload.checks}
    samples.update({name: [] for name in workload.commands})
    # per pass: (wall / allocating loop, wall / arithmetic loop)
    in_ref = {name: [] for name in workload.commands}
    refs = [reference()]
    slowest = setup_spent = 0.0
    while True:
        pass_start = time.monotonic()
        for name in workload.commands:
            samples[name].append(cli.run(name, workload.argv(name)))
            refs.append(reference())
            wall = samples[name][-1]["wall"]
            in_ref[name].append(tuple(wall / ((before + after) / 2) for before, after in zip(refs[-2], refs[-1])))
        setup_start = time.monotonic()
        slowest = max(slowest, setup_start - pass_start)
        setup_samples += setup(workload, seed, work, *SETUP_PER_PASS)
        setup_spent += time.monotonic() - setup_start
        if time.monotonic() - started - setup_spent + slowest > seconds:
            break
    check_outputs(workload, seed, samples, cli)

    def in_ref_median(name: str, of) -> float:
        return statistics.median(of(alloc, arith) for alloc, arith in in_ref[name])

    def geometric(alloc, arith):
        return (alloc * arith) ** 0.5

    for name, runs in samples.items():
        role = "check" if name in workload.checks else "metric"
        ratio = f"{in_ref_median(name, geometric):.2f} ref, " if name in in_ref else ""
        print(
            f"{role} {name}_s {describe([r['wall'] for r in runs])} s; {ratio}"
            f"cpu {statistics.median(r['cpu'] for r in runs):.3f} s, rss {max(r['rss_mb'] for r in runs):.1f} MB, "
            f"stdout {runs[0]['bytes']} B / {runs[0]['lines']} lines"
        )
    wall_s = sum(statistics.median(r["wall"] for r in samples[name]) for name in workload.commands)
    wall_ref = sum(in_ref_median(name, geometric) for name in workload.commands)
    by_loop = [sum(in_ref_median(name, lambda *r: r[k]) for name in workload.commands) for k in (0, 1)]
    print(f"metric wall_s {wall_s:.4f} s (sum of the command medians)")
    print(f"metric wall_ref {wall_ref:.2f} ref (sum of the command medians, each wall / reference)")
    print(f"wall_ref by loop: allocating {by_loop[0]:.2f}, arithmetic {by_loop[1]:.2f}")
    print(f"reference allocating {describe([r[0] for r in refs])} s; arithmetic {describe([r[1] for r in refs])} s")
    setup_s = statistics.median(r for _, r in setup_samples) * REF_NOMINAL_S
    print(f"setup raw {describe([t for t, _ in setup_samples])} s")
    print(f"metric setup_s {setup_s:.6f} s (median set-up ÷ reference, times {REF_NOMINAL_S} s)")
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_ref": metric(wall_ref, "ref"),
        "peak_rss_mb": metric(cli.peak_rss_mb, "MB"),
    }


# Counted in the traced pass; 0 where the workload does not run that layer.
COUNTS = {
    "miner.frequent": "count",
    "miner.closed": "count",
    "miner.generators": "count",
    "miner.minimal_rare": "count",
    "miner.candidate_yield": "ratio",
    "miner.closed_ratio": "ratio",
    "miner.classes": "count",
    "rules.all": "count",
    "rules.mnr": "count",
    "rules.closed": "count",
    "rules.dg": "count",
    "rules.closed_pair_yield": "ratio",
    "lattice.concepts": "count",
    "lattice.edges": "count",
}

# Layer times that are the difference of two traced calls.  A build probe
# follows every parse_tab/parse_cxt, and a workload parses one of the two.
DERIVED = {
    "context.parse_tab_self_s": ("context.parse_tab", "context.build"),
    "context.parse_cxt_self_s": ("context.parse_cxt", "context.build"),
    "miner.flags_dfs_s": ("miner.mine_frequent.dfs", "miner.table_dfs"),
    "rules.all_self_s": ("rules.all", "miner.table_levelwise"),
    "rules.mnr_self_s": ("rules.mnr", "miner.classes"),
    "rules.closed_self_s": ("rules.closed", "miner.classes"),
}


def run_traced(workload, seed: int, seconds: int, work: Path, cli: Cli):
    """Each command once through the CLI, then untraced and traced in-process
    passes in turn until ``seconds`` are used (at least one of each)."""
    sys.path.insert(0, str(SRC))
    from replay import LAYER, Replay, Tracer

    startups = [cli.run("startup", ["stats", "tiny.tab"])["wall"] for _ in range(STARTUP_REPEATS + 1)][1:]
    samples = {name: [cli.run(name, workload.argv(name))] for name in workload.commands + workload.checks}
    check_outputs(workload, seed, samples, cli)
    expected = {name: runs[0]["sha256"] for name, runs in samples.items()}

    plain = Replay(workload, work, Tracer(False))
    traced = Replay(workload, work, Tracer(True))
    untraced_s, traced_s, self_times = [], [], []
    started = time.monotonic()
    slowest = 0.0
    for pass_id in itertools.count():
        pass_start = time.monotonic()
        for replay in (plain, traced):
            replay.start_pass(pass_id)
            walls = []
            for name in workload.commands:
                start = time.perf_counter()
                out = replay.run(name)
                walls.append(time.perf_counter() - start)
                cli.runs[f"replay.{name}"] += 1
                if hashlib.sha256(out).hexdigest() != expected[name]:
                    cli.fail(f"replay.{name}", "in-process rendering differs from the CLI stdout")
            replay.finish_pass()
            if replay is plain:
                untraced_s.append(sum(walls))
        # the traced total leaves out the probes, which run between commands
        traced_s.append(sum(e - b for n, b, e, _, pid in traced.t.spans if pid == pass_id and n.startswith("cmd.")))
        self_times.append(traced.t.self_times(pass_id))
        now = time.monotonic()
        slowest = max(slowest, now - pass_start)
        if now - started + slowest > seconds or now + slowest > cli.deadline:
            break

    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, pid in traced.t.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "pass": pid}) + "\n")

    def med(name: str) -> float:
        return statistics.median(st.get(name, 0.0) for st in self_times)

    names = sorted({n for st in self_times for n in st})
    for name in names:
        kind = "command" if name.startswith("cmd.") else ("probe" if name not in LAYER else LAYER[name])
        print(f"layer {name}_s self {med(name):.4f} s ({kind}; {len(self_times)} traced passes)")
    for name, (whole, part) in DERIVED.items():
        if whole in names and part in names:
            print(f"layer {name} {med(whole) - med(part):.4f} s (derived: {whole} - {part})")
    overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    print(f"trace untraced {describe(untraced_s)} s; traced {describe(traced_s)} s; overhead {overhead:.4f} s")

    def group_sums(st: dict[str, float]) -> dict[str, float]:
        sums = {group: sum(v for n, v in st.items() if LAYER.get(n) == group) for group in set(LAYER.values())}
        sums["parse"] -= sums["build"]  # the build inside parse_tab/parse_cxt
        return sums

    per_pass = [group_sums(st) for st in self_times]
    groups = {group: statistics.median(g[group] for g in per_pass) for group in per_pass[0]}
    metrics = {
        "cli.startup_s": metric(statistics.median(startups), "s"),
        "layer.parse_s": metric(groups["parse"], "s"),
        "layer.build_s": metric(groups["build"], "s"),
        "layer.compute_s": metric(groups["compute"], "s"),
        "layer.render_s": metric(groups["render"], "s"),
        "replay.untraced_s": metric(statistics.median(untraced_s), "s"),
        "trace.overhead_s": metric(overhead, "s"),
        "cli.stdout_bytes": metric(sum((work / f"{n}.out").stat().st_size for n in workload.commands), "bytes"),
        "context.input_bytes": metric((work / workload.input_name).stat().st_size, "bytes"),
    }
    for name, unit in COUNTS.items():
        metrics[name] = metric(traced.counts.get(name, 0), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "galmine" / "__main__.py").is_file():
        print(f"galmine sources not found under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        return measure(args, time.monotonic() + RUN_LIMIT_S, launcher)
    finally:
        launcher.close()


def measure(args, deadline: float, launcher: Launcher) -> int:
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment()
    print("env " + json.dumps(env))
    shape = workload.make_inputs(args.seed, work)
    (work / "tiny.tab").write_text(TINY_TAB, encoding="utf-8")
    print(f"shape {workload.name} seed {args.seed}: " + json.dumps(shape))
    cli = Cli(work, deadline, launcher)
    try:
        if args.trace:
            metrics = run_traced(workload, args.seed, args.seconds, work, cli)
        else:
            setup_samples = setup(workload, args.seed, work, *SETUP_FIRST)
            metrics = run_e2e(workload, args.seed, args.seconds, work, cli, setup_samples)
    except CommandTimeout:
        metrics = None
    for name, message in cli.failures:
        print(f"FAILED {name}: {message}")
    print(f"failed_ops {cli.failed}/{cli.attempted}")
    if metrics is None:
        print("no result: a command did not finish", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not cli.failures, "attempted": cli.attempted, "failed": cli.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

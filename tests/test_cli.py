import argparse
import json
import os
import shlex
import subprocess
import sys

import pytest

from galmine import lattice, miner, mine_frequent, parse_cxt, parse_tab, postprocess, preprocess, write_cxt
from galmine.cli import _build_parser, main
from galmine.miner import render_itemsets_text

from conftest import BAD_RULE_RECORDS, K4_TAB, RULE_RECORD


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.tab"
    path.write_text(K4_TAB)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mine_fci_six_lines(capsys, k4_file):
    code, out, err = run_cli(capsys, "mine", "--minsup", "2", "--set", "fci", k4_file)
    assert code == 0
    assert out.splitlines() == ["a (3)", "b (3)", "c (3)", "a b (2)", "a c (2)", "b c (2)"]


def test_rules_dg(capsys, k4_file):
    code, out, err = run_cli(capsys, "rules", "--basis", "dg", k4_file)
    assert code == 0
    assert out == "d => a c (supp=1; conf=1.0000; lift=2.0000; conv=inf)\n"


def test_mine_minsup_zero_exit3(capsys, k4_file):
    code, out, err = run_cli(capsys, "mine", "--minsup", "0", k4_file)
    assert code == 3
    assert "minsup" in err


def test_unknown_subcommand_exit1(capsys):
    code, out, err = run_cli(capsys, "explode")
    assert code == 1


def test_unknown_flag_exit1(capsys, k4_file):
    code, out, err = run_cli(capsys, "mine", "--frobnicate", k4_file)
    assert code == 1


def test_parse_error_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.cxt"
    bad.write_text("not a context\n")
    code, out, err = run_cli(capsys, "stats", str(bad))
    assert code == 2


def test_missing_file_exit2(capsys):
    code, out, err = run_cli(capsys, "stats", "/nonexistent/file.tab")
    assert code == 2


def test_stats_text_and_json(capsys, k4_file):
    code, out, _ = run_cli(capsys, "stats", k4_file)
    assert code == 0
    assert "objects: 4" in out and "density: 0.625" in out and "support d: 1" in out
    code, out, _ = run_cli(capsys, "stats", "--format", "json", k4_file)
    data = json.loads(out)
    assert data["ones"] == 10
    assert data["attribute_supports"] == {"a": 3, "b": 3, "c": 3, "d": 1}


def test_minsup_percentage(capsys, k4_file):
    code, out, _ = run_cli(capsys, "mine", "--minsup", "50%", k4_file)
    assert code == 0
    assert len(out.splitlines()) == 6  # same as absolute 2


def test_mine_strategies_identical(capsys, k4_file):
    outputs = set()
    for strategy in ("levelwise", "dfs", "hybrid"):
        code, out, _ = run_cli(capsys, "mine", "--minsup", "1", "--strategy", strategy, k4_file)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_mine_json_format(capsys, k4_file):
    code, out, _ = run_cli(capsys, "mine", "--minsup", "2", "--format", "json", k4_file)
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 6
    assert records[0] == {"items": ["a"], "support": 3, "closed": True, "generator": True}


def test_mine_text_json_same_information(capsys, k4_file):
    code, text_out, _ = run_cli(capsys, "mine", "--minsup", "2", k4_file)
    code, json_out, _ = run_cli(capsys, "mine", "--minsup", "2", "--format", "json", k4_file)
    text_pairs = [(line.rsplit(" (", 1)[0], int(line.rsplit(" (", 1)[1][:-1])) for line in text_out.splitlines()]
    json_pairs = [(" ".join(r["items"]), r["support"]) for r in map(json.loads, json_out.splitlines())]
    assert text_pairs == json_pairs


def test_pre_transpose(capsys, k4_file):
    code, out, _ = run_cli(capsys, "pre", "transpose", k4_file)
    assert code == 0
    assert out.splitlines()[0] == "o1 o2 o3"  # row "a"


def test_pre_complement_involution(capsys, k4_file, tmp_path):
    # CXT keeps declared attribute order, so the involution is textual
    code, canonical, _ = run_cli(capsys, "pre", "convert", "--out-format", "cxt", k4_file)
    code, once, _ = run_cli(capsys, "pre", "complement", "--out-format", "cxt", k4_file)
    assert once != canonical
    mid = tmp_path / "mid.cxt"
    mid.write_text(once)
    code, twice, _ = run_cli(capsys, "pre", "complement", "--out-format", "cxt", str(mid))
    assert twice == canonical


def test_pre_project(capsys, k4_file):
    code, out, _ = run_cli(capsys, "pre", "project", "--keep-attributes", "a,b", k4_file)
    assert out == "a b\na b\na\nb\n"
    code, out, _ = run_cli(capsys, "pre", "project", "--min-col-support", "2", k4_file)
    assert "d" not in out


def test_pre_project_unknown_label_exit3(capsys, k4_file):
    code, out, err = run_cli(capsys, "pre", "project", "--keep-attributes", "zz", k4_file)
    assert code == 3


def test_pre_convert(capsys, k4_file, tmp_path):
    code, cxt_text, _ = run_cli(capsys, "pre", "convert", "--out-format", "cxt", k4_file)
    assert code == 0
    assert cxt_text.startswith("B\n\n4\n4\n")
    cxt_file = tmp_path / "k4.cxt"
    cxt_file.write_text(cxt_text)
    code, back, _ = run_cli(capsys, "pre", "convert", "--out-format", "tab", str(cxt_file))
    assert back == K4_TAB


def test_pre_discretize(capsys, tmp_path):
    csv = tmp_path / "vals.csv"
    csv.write_text("x\n1\n2\n3\n4\n")
    code, out, _ = run_cli(capsys, "pre", "discretize", "--bins", "2", str(csv))
    assert code == 0
    assert out == "x[1.0;2.5)\nx[1.0;2.5)\nx[2.5;4.0]\nx[2.5;4.0]\n"


def test_lattice_json_and_dot(capsys, k4_file):
    code, out, _ = run_cli(capsys, "lattice", k4_file)
    data = json.loads(out)
    assert len(data["concepts"]) == 10 and len(data["edges"]) == 15
    code, out, _ = run_cli(capsys, "lattice", "--dot", k4_file)
    assert out.startswith("digraph lattice {")
    assert out.count("->") == 15


def test_gen_deterministic(capsys):
    code, a, _ = run_cli(capsys, "gen", "--rows", "6", "--cols", "5", "--density", "0.5", "--seed", "3", "--out-format", "cxt")
    code, b, _ = run_cli(capsys, "gen", "--rows", "6", "--cols", "5", "--density", "0.5", "--seed", "3", "--out-format", "cxt")
    assert a == b
    assert a.startswith("B\n\n6\n5\n")


def test_gen_density_validation_exit3(capsys):
    code, out, err = run_cli(capsys, "gen", "--rows", "2", "--cols", "2", "--density", "7")
    assert code == 3


def test_post_filter_and_topk(capsys, k4_file, tmp_path):
    code, jsonl, _ = run_cli(capsys, "rules", "--basis", "mnr", "--minsup", "1", "--minconf", "0.3", "--format", "json", k4_file)
    rules_file = tmp_path / "rules.jsonl"
    rules_file.write_text(jsonl)
    code, out, _ = run_cli(capsys, "post", "filter", "--premise-len", "1,1", "--contain", "d", "--side", "premise", str(rules_file))
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs and all(r["premise"] == ["d"] for r in recs)
    code, out, _ = run_cli(capsys, "post", "topk", "--top", "2", "--by", "confidence", "--format", "text", str(rules_file))
    assert code == 0
    assert len(out.splitlines()) == 2
    assert out.splitlines()[0].startswith("d => a c")


def test_post_filter_contradiction_exit3(capsys, tmp_path):
    rules_file = tmp_path / "rules.jsonl"
    rules_file.write_text("")
    code, out, err = run_cli(capsys, "post", "filter", "--contain", "a", "--not-contain", "a", str(rules_file))
    assert code == 3


def test_post_color(capsys, tmp_path):
    text_file = tmp_path / "rules.txt"
    text_file.write_text("a b => c\n")
    code, out, _ = run_cli(capsys, "post", "color", "--color", "c", str(text_file))
    assert out == "a b => \x1b[31mc\x1b[0m\n"


def test_pre_discretize_label_column(capsys, tmp_path):
    csv = tmp_path / "vals.csv"
    csv.write_text("id,x\nrow1,1\nrow2,4\n")
    code, out, _ = run_cli(capsys, "pre", "discretize", "--bins", "2", "--label-column", "--out-format", "cxt", str(csv))
    assert code == 0
    assert "row1" in out and "row2" in out


def test_mine_on_csv_exit3(capsys, tmp_path):
    csv = tmp_path / "vals.csv"
    csv.write_text("x\n1\n")
    code, out, err = run_cli(capsys, "mine", "--minsup", "1", str(csv))
    assert code == 3
    assert "discretiz" in err


def test_gen_density_zero_needs_cxt(capsys):
    # TAB cannot represent empty rows; CXT can
    code, out, err = run_cli(capsys, "gen", "--rows", "2", "--cols", "2", "--density", "0")
    assert code == 3
    code, out, _ = run_cli(capsys, "gen", "--rows", "2", "--cols", "2", "--density", "0", "--out-format", "cxt")
    assert code == 0
    assert out.endswith("..\n..\n")


def test_post_topk_negative_exit3(capsys, tmp_path):
    rules_file = tmp_path / "rules.jsonl"
    rules_file.write_text("")
    code, out, err = run_cli(capsys, "post", "topk", "--top", "-1", str(rules_file))
    assert code == 3


def test_piped_composition_subprocess(tmp_path):
    """pre transpose f | mine - equals mining the transposed file."""
    k4 = tmp_path / "k4.tab"
    k4.write_text(K4_TAB)
    pre = subprocess.run(
        [sys.executable, "-m", "galmine", "pre", "transpose", str(k4)],
        capture_output=True, text=True, check=True,
    )
    piped = subprocess.run(
        [sys.executable, "-m", "galmine", "mine", "--minsup", "2", "-"],
        input=pre.stdout, capture_output=True, text=True, check=True,
    )
    tfile = tmp_path / "k4t.tab"
    tfile.write_text(pre.stdout)
    direct = subprocess.run(
        [sys.executable, "-m", "galmine", "mine", "--minsup", "2", str(tfile)],
        capture_output=True, text=True, check=True,
    )
    assert piped.stdout == direct.stdout
    assert piped.stdout  # non-empty


def test_csv_discretize_mine_pipeline_subprocess(tmp_path):
    csv = tmp_path / "vals.csv"
    csv.write_text("x,y\n1,10\n2,20\n3,15\n4,11\n")
    pre = subprocess.run(
        [sys.executable, "-m", "galmine", "pre", "discretize", "--bins", "2", str(csv)],
        capture_output=True, text=True, check=True,
    )
    mined = subprocess.run(
        [sys.executable, "-m", "galmine", "mine", "--minsup", "1", "-"],
        input=pre.stdout, capture_output=True, text=True, check=True,
    )
    assert mined.stdout


def test_non_utf8_input_exit2(capsys, tmp_path):
    bad = tmp_path / "latin1.tab"
    bad.write_bytes("caf\xe9 b\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "stats", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "UTF-8" in err


@pytest.mark.parametrize("record", BAD_RULE_RECORDS.values(), ids=BAD_RULE_RECORDS.keys())
def test_post_topk_bad_rule_record_exit2(capsys, tmp_path, record):
    rules_file = tmp_path / "rules.jsonl"
    rules_file.write_text(RULE_RECORD + "\n" + record + "\n")
    code, out, err = run_cli(capsys, "post", "topk", "--top", "1", str(rules_file))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and "line 2" in err


def test_pre_discretize_csv_field_over_limit_exit2(capsys, tmp_path):
    csv = tmp_path / "vals.csv"
    csv.write_text("a,b\n" + "1" * 131_073 + ",2\n")
    code, out, err = run_cli(capsys, "pre", "discretize", str(csv))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


def test_stats_cxt_lf_keeps_carriage_return_in_label(capsys, tmp_path):
    text = "B\n\n2\n2\n\no1\no2\na\rb\nc\nX.\nXX\n"
    cxt = tmp_path / "cr-label.cxt"
    cxt.write_bytes(text.encode("utf-8"))
    code, out, err = run_cli(capsys, "stats", "--format", "json", str(cxt))
    assert (code, err) == (0, "")
    ctx = parse_cxt(text)
    assert json.loads(out)["attribute_supports"] == dict(zip(ctx.attribute_labels, ctx.stats().attribute_supports))
    assert ctx.attribute_labels == ("a\rb", "c")


def test_cr_only_cxt_equals_k4(capsys, k4, k4_file, tmp_path):
    text = write_cxt(k4).replace("\n", "\r")
    assert parse_cxt(text) == k4
    cxt = tmp_path / "k4-cr.cxt"
    cxt.write_bytes(text.encode("utf-8"))
    assert run_cli(capsys, "stats", str(cxt)) == run_cli(capsys, "stats", k4_file)


def test_cxt_mixed_line_ends_exit2(capsys, k4, tmp_path):
    # the line end after "B" is the file's: with LF there, a CRLF matrix line keeps its "\r"
    head, matrix = write_cxt(k4).split("d\n")
    cxt = tmp_path / "mixed.cxt"
    cxt.write_bytes((head + "d\n" + matrix.replace("\n", "\r\n")).encode("utf-8"))
    code, out, err = run_cli(capsys, "stats", str(cxt))
    assert (code, out) == (2, "")
    assert err == "parse error: CXT matrix line 1 has 5 characters, expected 4\n"


@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "utf-8"}, {"LC_ALL": "C"}], ids=["utf-8-io", "c-locale"])
def test_non_utf8_stdin_exit2(env):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "LC_ALL", "LANG")} | env
    run = subprocess.run(
        [sys.executable, "-m", "galmine", "stats", "-"],
        input="caf\xe9 b\n".encode("latin-1"), capture_output=True, env=env,
    )
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr.startswith(b"parse error: standard input is not UTF-8 text")
    assert b"byte offset 3" in run.stderr and b"Traceback" not in run.stderr


def test_post_color_unicode_separators_stay_in_line(capsys, tmp_path):
    text_file = tmp_path / "rules.txt"
    text_file.write_bytes("a\u2028b\x85c => d\n".encode("utf-8"))
    code, out, _ = run_cli(capsys, "post", "color", "--color", "b", str(text_file))
    assert (code, out) == (0, "a\u2028\x1b[31mb\x1b[0m\x85c => d\n")


# each repro once exited 0 with a context its own reader refuses
WRITER_REFUSALS = {
    "cxt-line-feed-label": (["pre", "discretize", "--label-column", "--out-format", "cxt"], 'id,x\n"r\n1",1\nr2,4\n', "not representable in CXT"),
    "gen-no-rows": (["gen", "--rows", "0", "--cols", "3"], None, "no objects"),
    "project-no-objects": (["pre", "project", "--keep-objects", ","], K4_TAB, "no objects"),
}


@pytest.mark.parametrize("argv, text, message", WRITER_REFUSALS.values(), ids=WRITER_REFUSALS.keys())
def test_writer_refuses_what_its_reader_cannot_read_exit3(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / ("input.csv" if "discretize" in argv else "input.tab")
        path.write_bytes(text.encode("utf-8"))
        argv = [*argv, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and message in err


def test_no_objects_as_cxt(capsys, k4_file):
    code, out, _ = run_cli(capsys, "pre", "project", "--keep-objects", ",", "--out-format", "cxt", k4_file)
    assert (code, out) == (0, "B\n\n0\n4\n\na\nb\nc\nd\n")


def _rows(rows) -> str:
    return "".join(" ".join(row) + "\n" for row in rows)


_ATTRS = [f"a{j}" for j in range(14)]
_WIDE = _rows([[f"a{j}" for j in range(30_000)]])
# every output is several times a 64 KiB pipe buffer
CLOSED_PIPE = {
    "mine": (["mine", "--minsup", "1"], _rows([_ATTRS] * 4)),  # 16,383 lines, 442 KB
    "rules": (["rules", "--minconf", "0.01"], _rows([_ATTRS[:8]] * 4)),  # 6,050 lines, 389 KB
    "lattice": (["lattice"], _rows([a for a in _ATTRS[:12] if a != b] for b in _ATTRS[:12])),  # 4,096 concepts
    "stats": (["stats"], _WIDE),
    "pre": (["pre", "transpose", "--out-format", "cxt"], _WIDE),
    "post": (["post", "color", "--color", "a1"], _WIDE),
    "gen": (["gen", "--rows", "30000", "--cols", "10", "--out-format", "cxt"], None),
}


@pytest.mark.parametrize("argv, text", CLOSED_PIPE.values(), ids=CLOSED_PIPE.keys())
def test_closed_pipe_exit0_quietly(tmp_path, argv, text):
    """The reader takes one byte and closes the pipe: no error happened."""
    if text is not None:
        path = tmp_path / "input.tab"
        path.write_text(text)
        argv = [*argv, str(path)]
    proc = subprocess.Popen([sys.executable, "-m", "galmine", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def _run_with_stdout_encoding(encoding, argv, stdin=None):
    env = os.environ | {"PYTHONIOENCODING": encoding}
    return subprocess.run([sys.executable, "-m", "galmine", *argv], input=stdin, capture_output=True, env=env)


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_mine_stdout_is_utf8_whatever_the_encoding(tmp_path, encoding):
    text = "café b\nb €\n"
    path = tmp_path / "cafe.tab"
    path.write_bytes(text.encode("utf-8"))
    run = _run_with_stdout_encoding(encoding, ["mine", "--minsup", "1", str(path)])
    ctx = parse_tab(text)
    lines = render_itemsets_text(mine_frequent(ctx, 1), ctx.attribute_labels)
    assert (run.returncode, run.stdout, run.stderr) == (0, "".join(line + "\n" for line in lines).encode("utf-8"), b"")


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_non_ascii_pipe_composes_whatever_the_encoding(tmp_path, encoding):
    path = tmp_path / "cafe.tab"
    path.write_bytes("café b\n".encode("utf-8"))
    pre = _run_with_stdout_encoding(encoding, ["pre", "transpose", "--out-format", "cxt", str(path)])
    assert (pre.returncode, pre.stdout) == (0, "B\n\n2\n1\n\ncafé\nb\no1\nX\nX\n".encode("utf-8"))
    stats = _run_with_stdout_encoding(encoding, ["stats", "--in-format", "cxt", "-"], stdin=pre.stdout)
    assert (stats.returncode, stats.stdout) == (0, b"objects: 2\nattributes: 1\nones: 2\ndensity: 1.0\nsupport o1: 2\n")


@pytest.mark.parametrize(
    "source, redirect, message",
    [
        ("k4.tab", ">&-", b"standard output is closed"),
        ("missing.tab", ">&-", b"standard output is closed"),  # checked before the input is read
        ("-", "<&-", b"standard input is closed"),
    ],
    ids=["stdout", "stdout-before-input", "stdin"],
)
def test_closed_standard_stream_exit2(k4_file, tmp_path, source, redirect, message):
    path = "-" if source == "-" else str(tmp_path / source)
    command = f"{shlex.quote(sys.executable)} -m galmine stats {shlex.quote(path)} {redirect}"
    run = subprocess.run(["sh", "-c", command], capture_output=True)
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", b"error: " + message + b"\n")


def test_extension_case_insensitive(capsys, k4, tmp_path):
    for name in ("k4.cxt", "K4.CXT"):
        (tmp_path / name).write_text(write_cxt(k4))
    upper = run_cli(capsys, "stats", str(tmp_path / "K4.CXT"))
    assert upper == run_cli(capsys, "stats", str(tmp_path / "k4.cxt"))
    assert upper[1].startswith("objects: 4\nattributes: 4\n")
    csv = tmp_path / "T.CSV"
    csv.write_text("x,y\n1,2\n")
    code, out, err = run_cli(capsys, "mine", str(csv))
    assert (code, out) == (3, "")
    assert "needs discretization" in err


CSV_REPEATS = {
    "column": ([], "x,y,x\n1,2,3\n", "CSV header repeats the column name 'x'"),
    "label": (["--label-column"], "id,x\nr,1\ns,2\nr,3\n", "row 3 repeats the object label 'r'"),
}


@pytest.mark.parametrize("flags, text, message", CSV_REPEATS.values(), ids=CSV_REPEATS.keys())
def test_repeated_csv_name_exit2(capsys, tmp_path, flags, text, message):
    csv = tmp_path / "repeats.csv"
    csv.write_text(text)
    code, out, err = run_cli(capsys, "pre", "discretize", *flags, str(csv))
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_project_unknown_label_same_message_whatever_the_hash_seed(k4_file):
    argv = [sys.executable, "-m", "galmine", "pre", "project", k4_file, "--keep-objects", "zz,yy,xx,ww"]
    for seed in ("1", "2", "3"):
        run = subprocess.run(argv, capture_output=True, env=os.environ | {"PYTHONHASHSEED": seed})
        assert (run.returncode, run.stdout, run.stderr) == (3, b"", b"error: unknown object label: 'zz'\n")


def _subcommands(parser):
    """name -> parser of each subcommand of ``parser``; empty for a leaf."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _leaves(parser, path=()):
    """(path, parser) of every leaf command below ``parser``."""
    for name, sub in _subcommands(parser).items():
        if _subcommands(sub):
            yield from _leaves(sub, (*path, name))
        else:
            yield (*path, name), sub


def test_every_leaf_runs_its_own_command():
    root = _build_parser()
    leaves = dict(_leaves(root))
    assert len(leaves) == 13 and ("pre", "discretize") in leaves and ("post", "color") in leaves
    for path, parser in leaves.items():
        assert callable(parser.get_default("run")), path
    for group in (root, _subcommands(root)["pre"], _subcommands(root)["post"]):
        assert group.get_default("run") is None


# each CLI choice list and the library tuple it is read from
OWNED_CHOICES = {
    "in-format": ("--in-format", (*preprocess.CONTEXT_FORMATS, "csv")),
    "out-format": ("--out-format", preprocess.CONTEXT_FORMATS),
    "binning": ("--binning", preprocess.BINNING_STRATEGIES),
    "label-mode": ("--label-mode", lattice.LABEL_MODES),
    "side": ("--side", postprocess.SIDES),
    "strategy": ("--strategy", miner.STRATEGIES),
    "measure": ("--by", postprocess.MEASURES),
}


@pytest.mark.parametrize("flag, owned", OWNED_CHOICES.values(), ids=OWNED_CHOICES.keys())
def test_choice_lists_are_the_library_tuples(flag, owned):
    found = [
        action.choices
        for _, parser in _leaves(_build_parser())
        for action in parser._actions
        if flag in action.option_strings
    ]
    assert found and all(tuple(choices) == owned for choices in found)


def _sh(command: str):
    return subprocess.run(["sh", "-c", command], capture_output=True)


def test_closed_stderr_drops_diagnostics(tmp_path):
    galmine = f"{shlex.quote(sys.executable)} -m galmine"
    missing = shlex.quote(str(tmp_path / "missing.tab"))
    run = _sh(f"{galmine} stats {missing} 2>&-; echo $?")
    assert (run.stdout, run.stderr) == (b"2\n", b"")
    # the next stage of a pipe reads no message as data
    run = _sh(f"{galmine} mine {missing} 2>&- | {galmine} post topk - --top 1")
    assert (run.returncode, run.stdout, run.stderr) == (0, b"", b"")


def test_stderr_pipe_closed_by_its_reader_keeps_exit_code(tmp_path):
    argv = [sys.executable, "-m", "galmine", "stats", str(tmp_path / "missing.tab")]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stderr.close()
    out = proc.stdout.read()
    proc.stdout.close()
    assert (proc.wait(), out) == (2, b"")


def test_discretize_range_overflowing_a_float_exit3(capsys, tmp_path):
    csv = tmp_path / "big.csv"
    csv.write_text("x\n-1e308\n1e308\n0\n")
    code, out, err = run_cli(capsys, "pre", "discretize", str(csv), "--bins", "2")
    assert (code, out, err) == (3, "", "error: cannot split column 'x' (-1e+308 to 1e+308) into 2 equal-width bins\n")
    code, out, err = run_cli(capsys, "pre", "discretize", str(csv), "--bins", "2", "--binning", "freq")
    assert (code, err) == (0, "")


def test_discretize_bin_count_beyond_a_float(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("x\n1\n2\n3\n")
    bins = "1" + "0" * 400
    code, out, err = run_cli(capsys, "pre", "discretize", str(csv), "--bins", bins)
    assert (code, out, err) == (3, "", f"error: cannot split column 'x' (1.0 to 3.0) into {bins} equal-width bins\n")
    # one bin per distinct value, found without a list of 10**400 cuts
    code, out, err = run_cli(capsys, "pre", "discretize", str(csv), "--bins", bins, "--binning", "freq")
    assert (code, out, err) == (0, "x[1.0;1.0)\nx[1.0;2.0)\nx[2.0;3.0]\n", "")

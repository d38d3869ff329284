from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from mvparking import cli, subgraphs, tables, verify
from mvparking.motzkin import noncrossing_matchings
from mvparking.perms import bipart, dec, format_permutation, split_right


def test_report_table_arity_checked():
    with pytest.raises(ValueError):
        tables.ReportTable("x", ["a", "b"], [[1]])


def test_bounds_table_golden():
    t = tables.bounds_table(5)
    assert t.headers == ["n", "subgraphs", "p2free", "valid", "hs"]
    assert t.rows == [
        [1, 1, 1, 1, 1],
        [2, 2, 2, 2, 2],
        [3, 6, 5, 4, 4],
        [4, 24, 15, 9, 8],
        [5, 120, 52, 21, 16],
    ]


def test_bipartite_table_golden_small():
    t = tables.bipartite_table(3, 3)
    assert t.rows == [[1, 2, 3, 4], [2, 4, 7, 12], [3, 8, 16, 30]]


def test_dec_vs_split_table_golden_small():
    t = tables.dec_vs_split_table(6)
    assert t.column("n") == [3, 4, 5, 6]
    assert t.column("dec") == [4, 9, 21, 51]
    assert t.column("split") == [3, 8, 20, 51]


def test_conjecture_table_small():
    t = tables.conjecture_table(8)
    assert t.rows[-1] == [8, 341, 1, 341, 323, "yes", "78654321"] and not t.failures
    by_n = {row[0]: row for row in t.rows}
    assert by_n[5][t.headers.index("max_fibre")] == 21
    assert by_n[5][t.headers.index("split_fibre")] == 20
    assert by_n[5][t.headers.index("split_is_max")] == "no"
    assert by_n[4][t.headers.index("argmax_count")] == 2


def test_conjecture_rows_equal_the_rows_read_from_the_forward_program():
    for n, row in zip(range(3, 9), tables.conjecture_table(8).rows, strict=True):
        sizes = subgraphs.outcome_distribution(n)
        best = max(sizes.values())
        argmax = [word for word, size in sizes.items() if size == best]
        split = sizes[split_right(2, n - 2)]
        assert row == [n, best, len(argmax), split, sizes[dec(n)],
                       "yes" if split == best else "no", format_permutation(min(argmax))]


def test_csv_round_trip():
    t = tables.bounds_table(4)
    text = tables.render_csv(t)
    assert text.endswith("\n") and "\r" not in text
    assert '"' not in text
    headers, rows = tables.parse_csv(text)
    assert headers == t.headers
    assert rows == t.rows


def test_csv_round_trip_reads_int_like_cells_as_ints():
    """Text cells survive the round trip, but a permutation cell reads as an int."""
    t = tables.conjecture_table(5)
    headers, rows = tables.parse_csv(tables.render_csv(t))
    assert headers == t.headers
    assert rows == [[3, 4, 2, 3, 4, "no", 312], [4, 9, 2, 8, 9, "no", 4312],
                    [5, 21, 4, 20, 21, "no", 54132]]
    assert [row[-1] for row in t.rows] == ["312", "4312", "54132"]
    with pytest.raises(ValueError, match="^empty CSV$"):
        tables.parse_csv("")


def test_render_json_and_pretty():
    t = tables.bounds_table(3)
    data = json.loads(tables.render_json(t))
    assert data["rows"] == t.rows
    assert data["metadata"]["max_n"] == 3
    pretty = tables.render_pretty(t)
    assert "subgraphs" in pretty and "# bounds" in pretty


# --- CLI ---------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """stdout and stderr of a command that argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_cli_outcome(capsys):
    code, out, _ = run_cli(capsys, "outcome", "--model", "mvp", "-p", "3,1,1,2")
    assert code == 0 and out.strip() == "3412"
    code, out, _ = run_cli(capsys, "outcome", "--model", "classical", "-p", "3112")
    assert code == 0 and out.strip() == "2314"
    code, out, _ = run_cli(capsys, "outcome", "--model", "mvp", "-p", "1,2,3")
    assert code == 0 and out.strip() == "123"


def test_cli_outcome_trace_and_json(capsys):
    code, out, _ = run_cli(capsys, "outcome", "--model", "mvp", "-p", "3,1,1,2", "--trace")
    assert code == 0
    assert out.splitlines() == [
        "3412",
        "bump: car 2 from spot 1 to spot 2",
        "bump: car 2 from spot 2 to spot 4",
    ]
    code, out, _ = run_cli(capsys, "outcome", "--model", "mvp", "-p", "3,1,1,2",
                           "--format", "json")
    data = json.loads(out)
    assert data["outcome"] == "3412" and data["bumps"] == [[2, 1, 2], [2, 2, 4]]


def test_cli_outcome_rejects_non_pf(capsys):
    code, out, err = run_cli(capsys, "outcome", "--model", "mvp", "-p", "2,2")
    assert code == 2 and not out
    assert "not a parking function" in err


def test_cli_fibre(capsys):
    code, out, _ = run_cli(capsys, "fibre", "--perm", "312")
    assert code == 0
    assert out.splitlines() == ["1,1,1", "1,3,1", "2,1,1", "2,3,1", "size 4"]
    code, out, _ = run_cli(capsys, "fibre", "--perm", "312", "--method", "both")
    assert code == 0 and "PASS" in out
    code, out, _ = run_cli(capsys, "fibre", "--perm", "123")
    assert out.splitlines() == ["1,2,3", "size 1"]
    code, out, _ = run_cli(capsys, "fibre", "--perm", "7654321", "--method", "subgraph")
    assert code == 0 and out.splitlines()[-1] == "size 127"
    code, out, _ = run_cli(capsys, "fibre", "--perm", "312", "--format", "json")
    assert code == 0 and json.loads(out) == {
        "permutation": "312", "fibre": ["1,1,1", "1,3,1", "2,1,1", "2,3,1"], "size": 4}
    code, out, _ = run_cli(capsys, "fibre", "--perm", "312", "--method", "both",
                           "--format", "json")
    assert code == 0 and json.loads(out) == {
        "permutation": "312", "fibre": ["1,1,1", "1,3,1", "2,1,1", "2,3,1"], "size": 4,
        "methods_agree": True}


def test_cli_fibre_both_methods_report_a_difference(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fibre_brute", lambda word: subgraphs.fibre_brute(word)[1:])
    code, out, _ = run_cli(capsys, "fibre", "--perm", "312", "--method", "both")
    assert code == 1 and out.splitlines()[-1] == "FAIL subgraph and brute-force enumerations differ"
    code, out, _ = run_cli(capsys, "fibre", "--perm", "312", "--method", "both", "--format", "json")
    assert code == 1 and json.loads(out)["methods_agree"] is False


def test_cli_fibre_refuses_n_above_fibre_cap(capsys):
    perm = ",".join(map(str, range(1, subgraphs.FIBRE_CAP + 2)))
    code, out, err = run_cli(capsys, "fibre", "--perm", perm, "--force")
    assert code == 2 and not out and "above fibre cap FIBRE_CAP=255" in err


def test_cli_fibre_no_prune_exits_2(capsys):
    out, err = usage_error(capsys, "fibre", "--perm", "312", "--no-prune")
    assert not out and "unrecognized arguments: --no-prune" in err


def test_cli_fibre_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "fibre", "--perm", "312", "--format", "csv")
    assert code == 0
    headers, rows = tables.parse_csv(out)
    assert headers == ["p1", "p2", "p3"]
    assert rows == [[1, 1, 1], [1, 3, 1], [2, 1, 1], [2, 3, 1]]


def test_cli_fibre_brute_cap(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "fibre", "--perm", "87654321", "--method", "brute")
    assert code == 2 and "cap" in err

    def walk(*_args, **_kwargs):
        raise AssertionError("walked before the brute-force cap was checked")

    monkeypatch.setattr(cli, "fibre_via_subgraphs", walk)
    code, out, err = run_cli(capsys, "fibre", "--perm", "11,10,9,8,7,6,5,4,3,2,1",
                             "--method", "both")
    assert code == 2 and not out and err == "error: n=11 above brute-force cap 7\n"


def test_cli_fibre_guard(capsys, monkeypatch):
    def walk(*_args, **_kwargs):
        raise AssertionError("walked before the fibre guard was checked")

    monkeypatch.setattr(cli, "fibre_via_subgraphs", walk)
    code, out, err = run_cli(capsys, "fibre", "--perm", ",".join(map(str, range(15, 0, -1))))
    assert code == 2 and not out and err == "error: n=15 above guard 14 for fibre (use --force)\n"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "fibre", "--perm", ",".join(map(str, range(1, 16))), "--force")
    assert code == 0 and out.splitlines() == [",".join(map(str, range(1, 16))), "size 1"]


def test_cli_stabilise_guard(capsys, monkeypatch):
    def topple(*_args, **_kwargs):
        raise AssertionError("toppled before the grain guard was checked")

    monkeypatch.setattr(cli, "stabilise", topple)
    code, out, err = run_cli(capsys, "sandpile", "stabilise", "-c", "9999999999,0,0")
    assert code == 2 and not out and err == (
        "error: 9999999999 grains above guard 300000 for stabilise (use --force)\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "STABILISE_GUARD", 3)
    code, out, err = run_cli(capsys, "sandpile", "stabilise", "-c", "4,0,0")
    assert code == 2 and not out and "guard 3" in err
    code, out, _ = run_cli(capsys, "sandpile", "stabilise", "-c", "4,0,0", "--force", "--trace")
    assert code == 0 and out.splitlines() == ["1,1,1", "toppled: 1"]


def test_cli_motzkin(capsys):
    code, out, _ = run_cli(capsys, "motzkin", "phi", "-p", "2,2,1,4,3,6,4,6")
    assert code == 0 and out.strip() == "HUHUDUDD"
    code, out, _ = run_cli(capsys, "motzkin", "inverse", "--path", "HH")
    assert code == 0 and out.strip() == "1,2"
    code, out, _ = run_cli(capsys, "motzkin", "rep", "-p", "1,1,2")
    assert code == 0 and out.strip() == "1,2,1"
    code, out, _ = run_cli(capsys, "motzkin", "noncross", "-n", "5", "--count")
    assert code == 0 and out.strip() == "21"
    code, out, _ = run_cli(capsys, "motzkin", "noncross", "-n", "3")
    assert sorted(out.splitlines()) == ["", "1-2", "1-3", "2-3"]


@pytest.mark.parametrize("argv, data", [
    (["motzkin", "phi", "-p", "2,2,1,4,3,6,4,6"],
     {"command": "motzkin phi", "result": "HUHUDUDD"}),
    (["motzkin", "inverse", "--path", "HH"], {"command": "motzkin inverse", "result": "1,2"}),
    (["motzkin", "rep", "-p", "1,1,2"], {"command": "motzkin rep", "result": "1,2,1"}),
    (["motzkin", "noncross", "-n", "5", "--count"],
     {"command": "motzkin noncross", "result": "21"}),
    (["motzkin", "noncross", "-n", "3"],
     {"command": "motzkin noncross", "result": ["", "2-3", "1-2", "1-3"]}),
    (["motzkin", "noncross", "-n", "1"], {"command": "motzkin noncross", "result": [""]}),
    (["motzkin", "noncross", "-n", "0"], {"command": "motzkin noncross", "result": [""]}),
    (["sandpile", "stabilise", "-c", "3,0,0", "--trace"],
     {"command": "sandpile stabilise", "result": "0,1,1", "trace": ["toppled: 1"]}),
    (["sandpile", "stabilise", "-c", "3,0,0"],
     {"command": "sandpile stabilise", "result": "0,1,1", "trace": []}),
    (["sandpile", "recurrent", "-c", "0,0"],
     {"command": "sandpile recurrent", "result": "not recurrent", "trace": []}),
    (["sandpile", "minrec-classical", "-c", "1,3,3,2", "--trace"],
     {"command": "sandpile minrec-classical", "result": "1,3,2,0",
      "trace": ["iteration 1: duplicate at j=3, decrement c_3: 3 -> 2",
                "iteration 2: duplicate at j=4, decrement c_4: 2 -> 0"]}),
    (["sandpile", "minrec", "-c", "2,4,3,0,1"],
     {"command": "sandpile minrec", "result": "2,4,3,0,1", "trace": []}),
    (["sandpile", "cantop", "-c", "2,4,3,0,1"],
     {"command": "sandpile cantop", "result": "23154", "trace": []}),
    (["sandpile", "mvp-outcome", "-p", "3,1,1,2"],
     {"command": "sandpile mvp-outcome", "result": "3412", "trace": []}),
])
def test_cli_scalar_json_shape(capsys, argv, data):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out) == data


def test_cli_noncross_guard(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "motzkin", "noncross", "-n", "15", "--count")
    assert code == 2 and not out and "guard" in err
    monkeypatch.setattr(cli, "NONCROSS_GUARD", 3)
    code, out, err = run_cli(capsys, "motzkin", "noncross", "-n", "4")
    assert code == 2 and not out and "guard 3" in err
    code, out, _ = run_cli(capsys, "motzkin", "noncross", "-n", "4", "--count", "--force")
    assert code == 0 and out == "9\n"


def test_cli_motzkin_errors(capsys):
    code, _, err = run_cli(capsys, "motzkin", "inverse", "--path", "DU")
    assert code == 2 and "Motzkin" in err
    code, out, err = run_cli(capsys, "motzkin", "inverse", "--path", "")
    assert (code, out, err) == (2, "", "error: Motzkin path must be non-empty\n")
    _, err = usage_error(capsys, "motzkin", "phi")
    assert "required" in err


def test_cli_sandpile(capsys):
    code, out, _ = run_cli(capsys, "sandpile", "minrec",
                           "-c", "11,9,5,8,1,9,4,8,4,9,10,0")
    assert code == 0 and out.strip() == "11,7,5,6,1,2,3,8,4,9,10,0"
    code, out, _ = run_cli(capsys, "sandpile", "cantop", "-c", "2,4,3,0,1")
    assert code == 0 and out.strip() == "23154"
    code, out, _ = run_cli(capsys, "sandpile", "stabilise", "-c", "0,0,0")
    assert code == 0 and out.strip() == "0,0,0"
    code, out, _ = run_cli(capsys, "sandpile", "stabilise", "-c", "3,0,0", "--trace")
    assert out.splitlines() == ["0,1,1", "toppled: 1"]
    code, out, _ = run_cli(capsys, "sandpile", "recurrent", "-c", "2,4,3,0,1")
    assert code == 0 and out.strip() == "recurrent"
    code, out, _ = run_cli(capsys, "sandpile", "recurrent", "-c", "0,0")
    assert code == 0 and out.strip() == "not recurrent"
    code, out, _ = run_cli(capsys, "sandpile", "minrec-classical", "-c", "1,3,3,2")
    assert code == 0 and out.strip() == "1,3,2,0"
    code, out, _ = run_cli(capsys, "sandpile", "mvp-outcome", "-p", "3,1,1,2")
    assert code == 0 and out.strip() == "3412"


def test_cli_sandpile_trace(capsys):
    code, out, _ = run_cli(capsys, "sandpile", "minrec",
                           "-c", "11,9,5,8,1,9,4,8,4,9,10,0", "--trace")
    lines = out.splitlines()
    assert lines[0] == "11,7,5,6,1,2,3,8,4,9,10,0"
    assert lines[1] == "iteration 1: duplicate at j=6, decrement c_2: 9 -> 7"
    assert len(lines) == 5


@pytest.mark.parametrize("argv, flag", [
    (["motzkin", "phi", "-p", "1,1", "--count", "-n", "3"], "-n"),
    (["motzkin", "phi", "-p", "1,1", "-n", "0"], "-n"),
    (["motzkin", "inverse", "--path", "HH", "-p", "1,1"], "--prefs"),
    (["motzkin", "rep", "-p", "1,1,2", "--force"], "--force"),
    (["motzkin", "noncross", "-n", "3", "--path", "HH"], "--path"),
    (["sandpile", "stabilise", "-c", "3,0,0", "-p", "1,1"], "--prefs"),
    (["sandpile", "recurrent", "-c", "0,0", "--trace"], "--trace"),
    (["sandpile", "cantop", "-c", "2,4,3,0,1", "--trace"], "--trace"),
    (["sandpile", "mvp-outcome", "-p", "3,1,1,2", "-c", "0,0"], "--config"),
])
def test_cli_option_the_subcommand_does_not_read_exits_2(capsys, argv, flag):
    out, err = usage_error(capsys, *argv)
    assert not out and "unrecognized arguments" in err
    with pytest.raises(SystemExit):
        cli.main([*argv[:2], "--help"])
    assert flag not in re.findall(r"-[-\w]+", capsys.readouterr().out)


def test_cli_sandpile_contract_errors(capsys):
    code, _, err = run_cli(capsys, "sandpile", "minrec", "-c", "0,0")
    assert code == 2 and "not recurrent" in err
    code, _, err = run_cli(capsys, "sandpile", "cantop", "-c", "1,1,0")
    assert code == 2


def test_cli_table_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "bounds", "--max-n", "5", "--format", "json")
    data = json.loads(out)
    assert code == 0 and list(data) == ["name", "headers", "rows", "metadata"]
    assert data["rows"] == tables.bounds_table(5).rows
    assert data["metadata"]["max_n"] == 5
    code, out, _ = run_cli(capsys, "table", "bounds", "--max-n", "5", "--format", "csv")
    assert code == 0
    assert out == (
        "n,subgraphs,p2free,valid,hs\n"
        "1,1,1,1,1\n"
        "2,2,2,2,2\n"
        "3,6,5,4,4\n"
        "4,24,15,9,8\n"
        "5,120,52,21,16\n"
    )


def test_cli_table_guards(capsys):
    code, _, err = run_cli(capsys, "table", "bounds", "--max-n", "256")
    assert code == 2 and err == "error: n=256 above guard 255 for bounds (use --force)\n"
    args = cli.build_parser().parse_args(["table", "dec-vs-split"])
    assert args.max_n == subgraphs.FIBRE_CAP  # a table's default size is its guard
    code, out, err = run_cli(capsys, "table", "dec-vs-split", "--max-n", "13", "--format", "csv")
    assert code == 0 and not err and out.endswith("\n13,41835,46850\n")
    code, _, err = run_cli(capsys, "table", "dec-vs-split", "--max-n", "256")
    assert code == 2 and "guard" in err
    code, _, err = run_cli(capsys, "table", "conjecture", "--max-n", "9")
    assert code == 2 and "guard" in err
    code, _, err = run_cli(capsys, "table", "bipartite", "--max-m", "81", "--max-n", "2")
    assert code == 2 and "guard" in err


@pytest.mark.parametrize("argv, message", [
    (["dec-vs-split", "--max-n", "256"], "dec-vs-split table's largest cell has 256 cars"),
    (["bipartite", "--max-m", "85", "--max-n", "171"],
     "bipartite table's largest cell has 256 cars"),
])
def test_cli_table_refuses_a_cell_above_the_fibre_cap_before_the_first(capsys, monkeypatch,
                                                                       argv, message):
    monkeypatch.setattr(tables, "_run_counter", lambda **_: pytest.fail("a cell was counted"))
    code, out, err = run_cli(capsys, "table", *argv, "--force")
    assert (code, out, err) == (2, "", f"error: {message}, above cap 255\n")


def test_cli_table_force_overrides_guard(capsys):
    code, out, err = run_cli(capsys, "table", "bipartite", "--max-m", "81", "--max-n", "1",
                             "--force", "--format", "csv")
    assert code == 0 and not err
    _, rows = tables.parse_csv(out)
    assert rows == [[1, *range(2, 83)]]  # thm-2.8: bipart(m, 1) avoids 321 and 3412


def test_cli_conjecture_above_its_cap_exits_2_at_once(capsys, monkeypatch):
    def row(*_args):
        raise AssertionError("a row was built before the cap was checked")

    monkeypatch.setattr(tables, "_conjecture_row", row)
    code, out, err = run_cli(capsys, "table", "conjecture", "--max-n", "11", "--force")
    assert code == 2 and not out
    assert err == "error: conjecture table's largest cell has 11 cars, above cap 10\n"


BAD_TABLE_SIZES = [  # (table, the builder's sizes, the refusal, its message)
    ("bounds", (True,), ValueError, "bounds table needs an int n >= 1, got True"),
    ("bounds", (4.0,), ValueError, "bounds table needs an int n >= 1, got 4.0"),
    ("bounds", (0,), ValueError, "bounds table needs an int n >= 1, got 0"),
    ("bounds", (256,), subgraphs.SizeCapExceeded,
     "bounds table's largest cell has 256 cars, above cap 255"),
    ("bipartite", (True, 2), ValueError, "bipartite table needs an int m >= 1, got True"),
    ("bipartite", (2, 4.0), ValueError, "bipartite table needs an int n >= 1, got 4.0"),
    ("bipartite", (0, 3), ValueError, "bipartite table needs an int m >= 1, got 0"),
    ("bipartite", (85, 171), subgraphs.SizeCapExceeded,
     "bipartite table's largest cell has 256 cars, above cap 255"),
    ("dec-vs-split", (True,), ValueError, "dec-vs-split table needs an int n >= 3, got True"),
    ("dec-vs-split", (4.0,), ValueError, "dec-vs-split table needs an int n >= 3, got 4.0"),
    ("dec-vs-split", (2,), ValueError, "dec-vs-split table needs an int n >= 3, got 2"),
    ("dec-vs-split", (256,), subgraphs.SizeCapExceeded,
     "dec-vs-split table's largest cell has 256 cars, above cap 255"),
    ("conjecture", (True,), ValueError, "conjecture table needs an int n >= 3, got True"),
    ("conjecture", (4.0,), ValueError, "conjecture table needs an int n >= 3, got 4.0"),
    ("conjecture", (2,), ValueError, "conjecture table needs an int n >= 3, got 2"),
    ("conjecture", (11,), subgraphs.SizeCapExceeded,
     "conjecture table's largest cell has 11 cars, above cap 10"),
]


@pytest.mark.parametrize("which, sizes, exc, message", BAD_TABLE_SIZES,
                         ids=[f"{which}-{sizes}" for which, sizes, *_ in BAD_TABLE_SIZES])
def test_every_table_refuses_bad_sizes_before_any_cell(capsys, monkeypatch, which, sizes, exc,
                                                       message):
    """As a library call, and through the CLI with --force, so past every guard."""
    for worker in ("_report", "_bounds", "_run_counter", "_conjecture_row", "motzkin_numbers"):
        monkeypatch.setattr(tables, worker, lambda *_a, **_k: pytest.fail("a cell was counted"))
    with pytest.raises(exc) as info:
        getattr(tables, f"{which.replace('-', '_')}_table")(*sizes)
    assert type(info.value) is exc and str(info.value) == message
    flags = tables.TABLES[which][0]
    argv = [arg for flag, size in zip(flags, sizes) for arg in (f"--max-{flag}", str(size))]
    try:
        code = cli.main(["table", which, *argv, "--force"])
    except SystemExit as exit_:
        code = exit_.code
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert (code, out, len(errors)) == (2, "", 1)
    if all(type(size) is int for size in sizes):
        assert err == f"error: {message}\n"
    else:  # argparse's int type refuses the text of a bool or a float, after its usage line
        assert errors[0].startswith(f"mvpark table {which}: error: argument --max-")
        assert "invalid int value" in errors[0]


def test_cli_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm-4.1", "--m", "6")
    assert code == 0 and "thm-4.1: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm-3.8", "--n", "5",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["passed"] is True


@pytest.mark.parametrize("suite, flag", [
    ("thm-3.8", "--m"), ("thm-4.1", "--n"), ("abelian", "--m"), ("prop-2.9", "--m"),
])
def test_cli_verify_refuses_the_cap_a_suite_does_not_read(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "3")
    assert code == 2 and not out
    assert err == f"error: verify --suite {suite} does not read {flag}\n"


def test_cli_verify_guards(capsys, monkeypatch):
    def suites(*_args, **_kwargs):
        raise AssertionError("a suite ran before the guard was checked")

    monkeypatch.setattr(verify, "run_suites", suites)
    code, out, err = run_cli(capsys, "verify", "--suite", "thm-2.5", "--n", "9")
    assert code == 2 and not out and err == (
        "error: n=9 above guard 8 for verify --suite thm-2.5 (use --force)\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", "3", "--m", "131")
    assert code == 2 and not out and err == (
        "error: m=131 above guard 130 for verify --suite thm-4.1 (use --force)\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "fibre-size", "--n", "10", "--force")
    assert code == 2 and not out and err == (
        "error: fibre-size n=10 above outcome distribution cap 9\n")
    monkeypatch.undo()
    monkeypatch.setitem(verify.SUITES, "thm-2.5", (*verify.SUITES["thm-2.5"][:3], 2))
    code, out, err = run_cli(capsys, "verify", "--suite", "thm-2.5", "--n", "3")
    assert code == 2 and not out and "guard 2" in err
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm-2.5", "--n", "3", "--force")
    assert code == 0 and out.startswith("thm-2.5: PASS (")


def test_every_verify_default_cap_is_within_its_guard():
    assert list(verify.SUITES) == verify.SUITE_NAMES
    for name, (_fn, _flag, cap, guard) in verify.SUITES.items():
        assert cap <= guard, name


def _guarded_operations():
    """Each guarded operation at one above its guard, read from where the guard
    is declared: (argv, the refusal's message, module and name of the worker
    that must not run before the check, what a stub of that worker returns)."""
    stub_table = tables.ReportTable("stub", ["n"], [[1]])
    for which, (flags, _least, guard, _cap) in tables.TABLES.items():
        for flag in flags:
            yield pytest.param(
                ["table", which, f"--max-{flag}", str(guard + 1)],
                f"{flag}={guard + 1} above guard {guard} for {which}",
                tables, f"{which.replace('-', '_')}_table", stub_table, id=f"table-{which}-{flag}")
    guard = cli.FIBRE_GUARD
    yield pytest.param(["fibre", "--perm", ",".join(map(str, range(1, guard + 2)))],
                       f"n={guard + 1} above guard {guard} for fibre",
                       cli, "fibre_via_subgraphs", [], id="fibre")
    guard = cli.NONCROSS_GUARD
    yield pytest.param(["motzkin", "noncross", "-n", str(guard + 1)],
                       f"n={guard + 1} above guard {guard} for noncross",
                       cli, "noncrossing_matchings", [], id="noncross")
    guard = cli.STABILISE_GUARD
    yield pytest.param(["sandpile", "stabilise", "-c", str(guard + 1)],
                       f"{guard + 1} grains above guard {guard} for stabilise",
                       cli, "stabilise", ((0,), ()), id="stabilise")
    for name, (_fn, flag, _default, guard) in verify.SUITES.items():
        yield pytest.param(["verify", "--suite", name, f"--{flag}", str(guard + 1)],
                           f"{flag}={guard + 1} above guard {guard} for verify --suite {name}",
                           verify, "run_suites", [verify.SuiteResult(name, True, 1, "stub")],
                           id=f"verify-{name}")


@pytest.mark.parametrize("argv, message, module, worker, result", _guarded_operations())
def test_every_guard_refuses_one_above_it_before_any_work(capsys, monkeypatch, argv, message,
                                                          module, worker, result):
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{worker} ran before the guard was checked")

    monkeypatch.setattr(module, worker, refuse)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message} (use --force)\n")
    calls = []
    monkeypatch.setattr(module, worker, lambda *args, **_kwargs: calls.append(args) or result)
    code, _, err = run_cli(capsys, *argv, "--force")
    assert (code, err, len(calls)) == (0, "", 1)


def test_the_library_runs_suites_above_their_guards(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "thm-2.5", (*verify.SUITES["thm-2.5"][:3], 1))
    assert verify.run_suite("thm-2.5", n=2).passed
    assert all(r.passed for r in verify.run_suites(["thm-2.5"], n=2))
    with pytest.raises(subgraphs.SizeCapExceeded, match="n=10 above outcome distribution cap 9"):
        verify.check_caps(["fibre-size"], 10)


def test_cli_verify_all_takes_both_caps_and_every_suite_takes_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "3", "--m", "1")
    assert code == 0 and out.count("PASS") == len(verify.SUITE_NAMES)
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm-4.1", "--seed", "7")
    assert code == 0 and "thm-4.1: PASS" in out


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run_cli(capsys, "table", "bounds", "--max-n", "3",
                           "--format", "csv", "--out", str(target))
    assert code == 0 and not out
    headers, rows = tables.parse_csv(target.read_text(encoding="utf-8"))
    assert headers[0] == "n" and rows[2] == [3, 6, 5, 4, 4]
    target = tmp_path / "outcome.txt"
    code, out, _ = run_cli(capsys, "outcome", "--model", "mvp", "-p", "3,1,1,2",
                           "--trace", "--out", str(target))
    assert code == 0 and not out
    assert target.read_text(encoding="utf-8") == (
        "3412\nbump: car 2 from spot 1 to spot 2\nbump: car 2 from spot 2 to spot 4\n")


@pytest.mark.parametrize("argv", [
    ["outcome", "--model", "mvp", "-p", "1"],
    ["verify", "--suite", "thm-2.5", "--n", "2"],
])
def test_cli_output_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write output: [Errno 2] No such file or directory: '{target}'\n"


def _env_with_src() -> dict[str, str]:
    """This environment, with the repository's `src` first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("argv, code, out, err", [
    (["outcome", "--model", "mvp", "-p", "3,1,1,2"], 0, "3412\n", ""),
    ([], 2, "", "mvpark: error: the following arguments are required: command\n"),
    (["sandpile", "recurrent", "-c", "5,0,0"], 2, "", "error: (5, 0, 0) is not stable\n"),
], ids=["outcome", "no-argument", "unstable-config"])
def test_the_console_entry_runs_as_the_installed_launcher_does(argv, code, out, err):
    """The launcher that pip writes for `[project.scripts]` runs `sys.exit(entry())`."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, entry = re.search(r'^\[project\.scripts\]\nmvpark = "([\w.]+):(\w+)"$', text,
                              re.MULTILINE).groups()
    launcher = f"import sys; from {module} import {entry}; sys.exit({entry}())"
    result = subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True,
                            text=True, env=_env_with_src())
    assert (result.returncode, result.stdout) == (code, out)
    assert result.stderr.endswith(err)


def test_cli_closed_stdout_exits_2_without_a_traceback():
    with subprocess.Popen(  # about 790 kB of output, far more than a pipe holds
            [sys.executable, "-m", "mvparking.cli", "motzkin", "noncross", "-n", "13"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_src()) as proc:
        assert proc.stdout.readline() == b"\n"  # the empty matching comes first
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert (proc.returncode, err) == (2, "error: cannot write output: [Errno 32] Broken pipe\n")


def test_cli_csv_rejected_for_scalars(capsys):
    _, err = usage_error(capsys, "outcome", "--model", "mvp", "-p", "1,1", "--format", "csv")
    assert "csv" in err


def test_cli_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["outcome", "--model", "mvp", "-p", "1", "--jobs", "2"],
    ["outcome", "--model", "mvp", "-p", "1", "--seed", "3"],
    ["fibre", "--perm", "1", "--seed", "1"],
    ["fibre", "--perm", "1", "--trace"],
    ["table", "bounds", "--max-n", "1", "--seed", "1"],
    ["table", "bounds", "--max-n", "1", "--trace"],
    ["motzkin", "noncross", "-n", "1", "--jobs", "2"],
    ["sandpile", "recurrent", "-c", "0", "--force"],
    ["verify", "--suite", "thm-4.1", "--m", "1", "--jobs", "2"],
    ["verify", "--suite", "thm-4.1", "--m", "1", "--trace"],
    ["table", "bounds", "--max-n", "3", "--max-m", "99"],
    ["table", "dec-vs-split", "--max-n", "3", "--max-m", "99"],
    ["table", "conjecture", "--max-n", "3", "--max-m", "99"],
])
def test_cli_flag_a_subcommand_does_not_read_exits_2(capsys, argv):
    out, err = usage_error(capsys, *argv)
    assert not out and "unrecognized arguments" in err


@pytest.mark.parametrize("jobs", ["0", "-1", "2"])
def test_cli_jobs_other_than_one_exit_2(capsys, jobs):
    code, out, _ = run_cli(capsys, "table", "bounds", "--max-n", "3", "--jobs", "1")
    assert code == 0 and out.startswith("# bounds")
    out, err = usage_error(capsys, "table", "bounds", "--max-n", "3", "--jobs", jobs)
    assert not out and "--jobs" in err


def test_cli_imports_no_process_machinery():
    code = ("import mvparking.cli, sys; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_env_with_src(), check=True)
    assert result.stdout == "[]\n"


def _operation_paths(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """The command words of every operation in the tree under `parser`."""
    groups = [action.choices for action in parser._actions if isinstance(action.choices, dict)]
    if not groups:
        yield path
        return
    for name, sub in groups[0].items():
        yield from _operation_paths(sub, (*path, name))


OPERATION_PATHS = list(_operation_paths(cli.build_parser()))
NARROW_CASES = [
    *([*path, "--help"] for path in OPERATION_PATHS),
    *([*path, "--format", "nope"] for path in OPERATION_PATHS),
    # a flag the operation does not read is refused under the root's usage line
    ["outcome", "--model", "mvp", "-p", "1", "--jobs", "2"],
    ["motzkin", "phi", "-p", "1", "-n", "3"], ["sandpile", "recurrent", "-c", "0", "-x"],
    ["table", "bounds", "--max-n", "1", "--seed", "1"],
    ["verify", "--suite", "thm-4.1", "--m", "1", "--trace"],
    [], ["--help"], ["table", "--help"], ["motzkin", "--help"], ["sandpile", "--help"],
    ["tabel"], ["table"], ["table", "nope"], ["motzkin", "nope"], ["sandpile", "nope"],
    ["outcome", "--model", "mvp"], ["motzkin", "phi"],
    ["table", "--max-n", "3", "bounds"], ["--format", "json", "outcome"],
    ["table", "bounds", "--max-n", "3", "--jobs", "2"],
    ["outcome", "--model", "mvp", "-p", "3,1,1,2", "--format", "json"],
    ["table", "bounds", "--max-n", "4", "--format", "csv"],
    ["sandpile", "stabilise", "-c", "3,0,1", "--trace"],
    ["verify", "--suite", "thm-4.1", "--m", "3"],
]


def _exit_out_err(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    out, err = capsys.readouterr()
    return code, out, err


def test_every_operation_path_is_found():
    assert len(OPERATION_PATHS) == len(set(OPERATION_PATHS)) >= 17
    assert {("outcome",), ("table", "bipartite"), ("sandpile", "mvp-outcome"),
            ("verify",)} <= set(OPERATION_PATHS)


@pytest.mark.parametrize("argv", NARROW_CASES, ids=" ".join)
def test_the_parser_built_for_argv_answers_as_the_whole_tree(capsys, monkeypatch, argv):
    narrow = _exit_out_err(capsys, argv)
    whole_tree = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: whole_tree())
    assert narrow == _exit_out_err(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["table", "bipartite", "--max-m", "2", "--max-n", "2", "--format", "csv", "--jobs", "1"],
    ["verify", "--suite", "thm-4.1", "--m", "2"],
    ["sandpile", "stabilise", "-c", "3,0,1"],
])
def test_a_command_builds_only_the_parsers_on_its_path(capsys, monkeypatch, argv):
    """The root, the group and the operation: no parent parser for --format and --out."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _, err = _exit_out_err(capsys, argv)
    assert (code, err) == (0, "")
    words = 2 if argv[0] in ("table", "motzkin", "sandpile") else 1
    assert len(built) == 1 + words
    built.clear()
    cli.build_parser()  # the whole tree, for the set-up probe and --help
    assert len(built) == len(OPERATION_PATHS) + 4  # the root and three groups besides


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    seen = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: seen.append(argv) or build(argv))
    monkeypatch.setattr(sys, "argv", ["mvpark", "outcome", "--model", "mvp", "-p", "3,1,1,2"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "3412\n"
    assert seen == [["outcome", "--model", "mvp", "-p", "3,1,1,2"]]


@pytest.mark.parametrize("argv", [
    ["bounds", "--max-n", "0"],
    ["bounds", "--max-n", "-2"],
    ["bipartite", "--max-m", "0", "--max-n", "2"],
    ["bipartite", "--max-m", "2", "--max-n", "0"],
    ["dec-vs-split", "--max-n", "2"],
    ["conjecture", "--max-n", "2"],
])
def test_cli_table_rejects_sizes_without_cells(capsys, argv):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2 and not out and "table needs an int" in err


def test_cli_conjecture_identity_check_fails_on_a_wrong_count(monkeypatch, capsys):
    code, _, err = run_cli(capsys, "table", "conjecture", "--max-n", "3")
    assert code == 0 and not err
    monkeypatch.setattr(tables, "_run_counter", lambda **_: lambda run: 0)
    code, out, err = run_cli(capsys, "table", "conjecture", "--max-n", "3", "--format", "csv")
    assert code == 1 and out.startswith("n,max_fibre")
    assert err == "FAIL conjecture n=3: fibre sizes sum to 0, not (n+1)^(n-1) = 16\n"


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from "):
        verify.run_suite("nope")


def test_verify_fails_when_no_case_is_checked(capsys):
    result = verify.run_suite("thm-2.5", n=0)
    assert not result.passed and result.checked == 0
    for argv in (["--suite", "thm-2.5", "--n", "0"],
                 ["--suite", "thm-4.1", "--m", "-1"],
                 ["--suite", "thm-6.3", "--n", "2"]):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1 and "FAIL (0 cases" in out


def test_verify_failure_reports_the_first_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(verify, "displacement_mvp", lambda p: -1)
    result = verify.run_suite("prop-2.9", n=1)
    assert (result.passed, result.checked, result.counterexample) == (False, 1, "p=1")
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop-2.9", "--n", "1")
    assert code == 1 and out.splitlines() == [
        "prop-2.9: FAIL (1 cases; displacement equals total arc length)",
        "  counterexample: p=1",
    ]
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop-2.9", "--n", "1", "--format", "json")
    assert code == 1 and json.loads(out) == [{
        "suite": "prop-2.9", "passed": False, "checked": 1,
        "detail": "displacement equals total arc length", "counterexample": "p=1"}]


def _first_on(n_bad, arcs):
    """`noncrossing_matchings` with `arcs` yielded first on [n_bad]."""
    return lambda n: [*[frozenset(arcs)] * (n == n_bad), *noncrossing_matchings(n)]


SUITE_FAULTS = [  # (suite, caps, verify name to replace, replacement, checked, counterexample)
    ("thm-2.5", {"n": 1}, "_induced_pf", lambda arcs, word: (0,), 1, "p=1 came back as 0"),
    ("thm-2.5", {"n": 1}, "enumerate_one_subgraphs", lambda word: [frozenset()] * 2, 3,
     "pi=1 has colliding images"),
    ("thm-2.8", {"n": 1}, "edges_acyclic", lambda edges, n: False, 1,
     "pi=1: patterns=True search=False all_valid=True"),
    ("thm-2.8", {"n": 1}, "_run_counter", lambda **_: lambda word: 0, 1,
     "pi=1: patterns=True search=True all_valid=False"),
    ("prop-2.10", {"n": 1}, "_is_p2_free", lambda pairs: False, 1, "pi=1 S={}"),
    ("prop-2.11", {"n": 1}, "_unpark", lambda word: [], 1, "pi=1 S={}"),
    ("thm-3.2", {"n": 1}, "is_motzkin_path", lambda path: False, 1, "p=1 path=H"),
    ("thm-3.2", {"n": 1}, "_parking_functions", lambda n: iter(()), 1, "p=1 path=H"),
    ("thm-3.8", {"n": 1}, "motzkin_numbers", lambda upto: [0] * (upto + 1), 1,
     "n=1: |noncross|=1 distinct=1 fibre_size=1 motzkin=0"),
    ("thm-3.8", {"n": 1}, "noncrossing_matchings", lambda n: [frozenset()] * 2, 2,
     "n=1: |noncross|=2 distinct=1 fibre_size=1 motzkin=1"),
    ("thm-3.8", {"n": 4}, "noncrossing_matchings", _first_on(4, {(1, 3), (2, 4)}), 1 + 2 + 4 + 1,
     "pi=4321 S={1-3,2-4}"),  # crossing: its preference parks to 4312
    ("thm-3.8", {"n": 3}, "noncrossing_matchings", _first_on(3, {(1, 3), (2, 3)}), 1 + 2 + 1,
     "pi=321 S={1-3,2-3}"),  # two left-arcs on 3: either one alone parks to 321
    ("thm-4.1", {"m": 0}, "fibre_via_subgraphs", lambda word: [], 1, "m=0: enumerated 0, formula 1"),
    ("thm-5.5", {"n": 1}, "_canonical_toppling", lambda cfg: (), 1, "p=1"),
    ("thm-5.5", {"n": 1}, "_mvp", lambda prefs, classical=False: (), 1, "p=1"),
    ("thm-6.3", {"n": 3}, "dec_to_split_subgraph", lambda arcs, n: frozenset(), 4,
     "n=3: images=4 distinct=1 fibre_size=4"),
    ("thm-6.3", {"n": 3}, "split_left", lambda m, n: tuple(range(1, m + n + 1)), 2,
     "pi=123 S={1-2,1-3}"),
    ("abelian", {"n": 1}, "stabilise", lambda cfg: ((-1,) * len(cfg), ()), 1,
     "start=(1,): (0,) != (-1,)"),
]


@pytest.mark.parametrize("suite, caps, name, fake, checked, counterexample", SUITE_FAULTS,
                         ids=[f"{suite}-{name}" for suite, _, name, *_ in SUITE_FAULTS])
def test_each_verify_suite_reports_an_injected_fault(monkeypatch, suite, caps, name, fake,
                                                     checked, counterexample):
    assert verify.run_suite(suite, **caps).passed
    monkeypatch.setattr(verify, name, fake)
    result = verify.run_suite(suite, **caps)
    assert (result.passed, result.checked, result.counterexample) == (False, checked, counterexample)


def test_matching_and_acyclicity_suites_never_list_a_fibre(monkeypatch):
    """thm-3.8, thm-6.3 and thm-2.8 take every fibre size from `fibre_size` or
    its run counter and check each case as it streams, holding no listed family."""
    def refuse(*args):
        raise AssertionError("listed a fibre")
    monkeypatch.setattr(verify, "_unpark", refuse)
    monkeypatch.setattr(verify, "fibre_via_subgraphs", refuse)
    for name in ("thm-3.8", "thm-6.3", "thm-2.8"):
        assert verify.run_suite(name).passed, name


def test_every_verify_suite_checks_the_closed_form_number_of_cases():
    """Case counts at n = 5 and m = 4 from closed forms: n^n vectors,
    (n+1)^(n-1) parking functions, n! permutations, prod_i i(i+1)/2
    1-subgraphs over all of S_n, and the Motzkin numbers."""
    sizes = range(1, 6)
    factorials = sum(prod(range(1, n + 1)) for n in sizes)
    pfs = sum((n + 1) ** (n - 1) for n in sizes)
    subgraph_total = sum(prod(i * (i + 1) // 2 for i in range(1, n + 1)) for n in sizes)
    motzkin = [1, 1, 2, 4, 9, 21]
    want = {
        "thm-2.5": pfs + subgraph_total, "thm-2.8": factorials, "prop-2.9": pfs,
        "prop-2.10": subgraph_total, "prop-2.11": subgraph_total, "thm-3.2": sum(n**n for n in sizes),
        "thm-3.8": sum(motzkin[1:]), "thm-4.1": 5, "thm-5.5": pfs, "thm-6.3": sum(motzkin[3:]),
        "abelian": 5 * 200 * 3, "fibre-size": factorials, "subgraph-counts": factorials,
    }
    assert list(want) == verify.SUITE_NAMES
    for name, result in zip(want, verify.run_suites(verify.SUITE_NAMES, n=5, m=4)):
        assert result.passed and result.checked == want[name], name


def test_verify_fibre_size_suite(monkeypatch, capsys):
    result = verify.run_suite("fibre-size", n=6)
    assert result.passed and result.checked == 1 + 2 + 6 + 24 + 120 + 720
    with pytest.raises(subgraphs.SizeCapExceeded, match="n=10 above outcome distribution cap 9"):
        verify.run_suite("fibre-size", n=10)
    code, out, err = run_cli(capsys, "verify", "--suite", "fibre-size", "--n", "10")
    assert code == 2 and not out and "cap 9" in err
    monkeypatch.setattr(verify, "fibre_size", lambda word: 1)
    result = verify.run_suite("fibre-size", n=3)
    assert (result.passed, result.checked, result.counterexample) == (
        False, 3, "pi=21: fibre_size=1 outcome_distribution=2 listed=2")
    monkeypatch.setattr(verify, "fibre_size", lambda word: 0)
    monkeypatch.setattr(verify, "outcome_distribution", lambda n: {(1,): 0})
    monkeypatch.setattr(verify, "fibre_via_subgraphs", lambda word: [])
    result = verify.run_suite("fibre-size", n=1)
    assert (result.passed, result.counterexample) == (False, "n=1: sum 0, want 1")


def test_verify_subgraph_counts_suite(monkeypatch, capsys):
    result = verify.run_suite("subgraph-counts", n=5)
    assert result.passed and result.checked == 1 + 2 + 6 + 24 + 120
    monkeypatch.setattr(verify, "hs_count", lambda word: 1)
    result = verify.run_suite("subgraph-counts", n=3)
    assert (result.passed, result.checked, result.counterexample) == (
        False, 3, "pi=21: p2_free_count=2 filtered=2, hs_count=1 filtered=2")
    code, out, _ = run_cli(capsys, "verify", "--suite", "subgraph-counts", "--n", "3")
    assert code == 1 and "counterexample: pi=21" in out


def test_readme_cli_examples(capsys):
    """Every `mvpark` line of README's CLI block parses; each `# -> X` line prints exactly X."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    parser = cli.build_parser()
    commands = [line for line in block.splitlines() if line.startswith("mvpark ")]
    ran = 0
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)
        _, arrow, expected = line.partition("# -> ")
        if arrow:
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (0, expected.strip() + "\n"), line
            ran += 1
    assert commands and ran


def test_cli_bounds_identity_check_fails_on_a_wrong_count(monkeypatch, capsys):
    code, _, err = run_cli(capsys, "table", "bounds", "--max-n", "3")
    assert code == 0 and not err
    monkeypatch.setattr(subgraphs, "_hs_count", lambda linv: 0)
    code, out, err = run_cli(capsys, "table", "bounds", "--max-n", "3", "--format", "csv")
    assert code == 1 and out == "n,subgraphs,p2free,valid,hs\n1,1,1,1,0\n2,2,2,2,0\n3,6,5,4,0\n"
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "FAIL bounds n=1", "FAIL bounds n=2", "FAIL bounds n=3"]


def test_cli_dec_vs_split_identity_check_fails_on_a_wrong_count(monkeypatch, capsys):
    code, _, err = run_cli(capsys, "table", "dec-vs-split", "--max-n", "4")
    assert code == 0 and not err
    monkeypatch.setattr(tables, "_run_counter", lambda **_: lambda run: 0)
    code, out, err = run_cli(capsys, "table", "dec-vs-split", "--max-n", "4", "--format", "csv")
    assert code == 1 and out == "n,dec,split\n3,0,0\n4,0,0\n"
    assert err == ("FAIL dec-vs-split n=3: dec fibre is 0, not Motzkin(n) = 4\n"
                   "FAIL dec-vs-split n=4: dec fibre is 0, not Motzkin(n) = 9\n")


def test_cli_bipartite_identity_check_fails_on_a_wrong_count(monkeypatch, capsys):
    code, _, err = run_cli(capsys, "table", "bipartite", "--max-m", "2", "--max-n", "2")
    assert code == 0 and not err
    monkeypatch.setattr(tables, "_run_counter", lambda **_: lambda run: 4)
    code, out, err = run_cli(capsys, "table", "bipartite", "--max-m", "2", "--max-n", "2",
                             "--format", "csv")
    assert code == 1 and out == "n,m1,m2\n1,4,4\n2,4,4\n"
    assert err == ("FAIL bipartite m=2: n=2 fibre is 4, not m+1+floor((m+1)^2/2) = 7\n"
                   "FAIL bipartite m=1 n=1: fibre is 4, not thm-2.8's 2^n = 2\n"
                   "FAIL bipartite m=2 n=1: fibre is 4, not thm-2.8's m+1 = 3\n")
    code, _, err = run_cli(capsys, "table", "bipartite", "--max-m", "2", "--max-n", "1")
    assert code == 1 and "n=2" not in err


@pytest.mark.parametrize("m, n, line", [
    (1, 3, "FAIL bipartite m=1 n=3: fibre is 9, not thm-2.8's 2^n = 8\n"),
    (3, 1, "FAIL bipartite m=3 n=1: fibre is 5, not thm-2.8's m+1 = 4\n"),
])
def test_cli_bipartite_product_formula_check_fails_on_a_wrong_count(monkeypatch, capsys, m, n, line):
    run_counter, wrong = tables._run_counter, bipart(m, n)

    def counter(**kwargs):
        count = run_counter(**kwargs)
        return lambda run: count(run) + (run == wrong)

    monkeypatch.setattr(tables, "_run_counter", counter)
    code, out, err = run_cli(capsys, "table", "bipartite", "--max-m", "3", "--max-n", "3",
                             "--format", "csv")
    assert code == 1 and err == line and out.startswith("n,m1,m2,m3\n")

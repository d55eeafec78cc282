import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

from htype import basis_builder, cli, golden
from htype.basis_builder import configured_signatures
from htype.cli import main
from htype.lie_algebra import (MissingCell, StructureTable, VerifyReport,
                               generate_table, verify_htype)
from htype.words import Signature, Word

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_json_smallest_table(capsys):
    code, out, err = run(capsys, "gen", "1", "0")
    assert code == 0
    assert out == '{"cells":[[1,2,1,1],[2,1,1,-1]],"dim":2,"sig":[1,0]}\n'
    assert err == ""


def test_gen_output_is_deterministic(capsys):
    first = run(capsys, "gen", "4", "2")
    second = run(capsys, "gen", "4", "2")
    assert first == second


def test_gen_csv(capsys):
    code, out, _ = run(capsys, "gen", "2", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,k,sign"
    assert lines[1] == "1,3,1,1"
    assert len(lines) == 9


def test_gen_latex(capsys):
    code, out, _ = run(capsys, "gen", "1", "0", "--format", "latex")
    assert code == 0
    assert out == (
        "\\begin{tabular}{c|cc}\n"
        "$[r, c]$ & $v_{1}$ & $v_{2}$ \\\\\n"
        "\\hline\n"
        "$v_{1}$ & $0$ & $z_{1}$ \\\\\n"
        "$v_{2}$ & $-z_{1}$ & $0$ \\\\\n"
        "\\end{tabular}\n")


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "gen", "3", "0", "--out", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = run(capsys, "gen", "3", "0")
    assert target.read_text() == direct


def test_gen_out_to_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gen", "1", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot write %r: " % str(target))
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_gen_out_to_a_path_with_a_nul_byte(capsys):
    """open raises ValueError, not OSError, on a NUL byte in the path,
    which only an in-process call can pass."""
    code, out, err = run(capsys, "gen", "1", "0", "--out", "x\0y")
    assert (code, out, err) == (2, "", "cannot write 'x\\x00y': embedded null byte\n")


def test_gen_out_to_a_path_with_a_newline(tmp_path, capsys):
    """The path is printed with repr, so a newline in it cannot split
    the error over two lines."""
    target = tmp_path / "no\nsuch" / "dir.json"
    code, out, err = run(capsys, "gen", "1", "0", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("cannot write %r: " % str(target))
    assert "\\nsuch" in err


ERROR_PATHS = [
    ["gen", "9", "0"],
    ["gen", "1", "0", "--format", "pdf"],
    ["verify", "--golden", "--generated"],
    ["verify", "extra"],
    ["match", "6", "1"],
    ["match", "0", "9"],
    ["dims", "extra"],
    ["relations", "6", "1"],
    ["relations", "x", "1"],
]


@pytest.mark.parametrize("argv", ERROR_PATHS, ids=" ".join)
def test_error_paths_exit_cleanly(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (2, 3)
    assert "Traceback" not in err
    assert err.strip()


def test_gen_0_7_verifies_as_its_signature(capsys):
    code, out, _ = run(capsys, "gen", "0", "7")
    data = json.loads(out)
    assert code == 0
    assert data["sig"] == [0, 7]
    assert data["dim"] == 16
    cells = {(a, b): (k, sign) for a, b, k, sign in data["cells"]}
    table = StructureTable(Signature(0, 7), 16, cells)
    assert verify_htype(table).ok


def test_gen_derived_signature(capsys):
    code, out, _ = run(capsys, "gen", "6", "1")
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 16
    assert data["label"] == "derived"


def test_gen_rejects_bad_signatures(capsys):
    for argv in (["gen", "9", "0"], ["gen", "0", "0"], ["gen", "5", "4"],
                 ["gen", "-1", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_verify_default_runs_everything(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "31 embedded tables checked" in out
    assert "missing cell (v13, v4): suggested value 0" in out
    assert "doubled construction: ok" in out
    assert "FAIL" not in out


def test_verify_golden_json(capsys):
    code, out, _ = run(capsys, "verify", "--golden", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"golden"}
    assert len(data["golden"]) == 31
    entry = data["golden"]["5,1"]
    assert entry["ok"] is True
    assert entry["missing"] == [{"cell": [13, 4], "suggestion": 0}]


def test_verify_golden_prints_a_failing_report(monkeypatch, capsys):
    """A failing golden report prints FAIL, then its missing cells, one
    with no suggested value, then its errata, and exits 3."""
    report = VerifyReport(
        Signature(2, 0), "reference table 2",
        ["cells (v1, v3) and (v3, v1) break antisymmetry"], None,
        [MissingCell((1, 2), None)])
    monkeypatch.setattr(cli, "verify_all_golden", lambda: {(2, 0): report})
    code, out, err = run(capsys, "verify", "--golden")
    assert (code, err) == (3, "")
    assert out == (
        "n(2,0) reference table 2: FAIL\n"
        "  missing cell (v1, v2): no suggested value\n"
        "  erratum: cells (v1, v3) and (v3, v1) break antisymmetry\n"
        "1 embedded tables checked\n")


def test_verify_generated_json_is_deterministic(capsys):
    first = run(capsys, "verify", "--generated", "--json")
    second = run(capsys, "verify", "--generated", "--json")
    assert first == second
    data = json.loads(first[1])
    assert data["generated"]["0,7"]["ok"] is True
    assert len(data["generated"]) == 35


def _damaged_n07(edit):
    table = golden.build_n07()
    cells = dict(table.cells)
    edit(cells)
    return replace(table, cells=cells)


def _flip_first_cell(cells):
    k, s = cells[(1, 2)]
    cells[(1, 2)] = (k, -s)


N07_FAILURES = [
    (lambda cells: cells.update({(1, 9): (1, 1)}),
     "n(0,7) doubled construction: FAIL "
     "(cell (v1, v9) couples the two halves)",
     ["cell (v1, v9) couples the two halves"]),
    (_flip_first_cell,
     "n(0,7) doubled construction: FAIL "
     "(blocks checked as (7,0), cross brackets zero)",
     ["cells (v1, v2) and (v2, v1) break antisymmetry",
      "cells (v2, v1) and (v1, v2) break antisymmetry"]),
]


@pytest.mark.parametrize("edit, line, errata", N07_FAILURES,
                         ids=["cross-block cell", "sign flipped in block 1"])
def test_verify_reports_a_broken_doubled_table(edit, line, errata,
                                               monkeypatch, capsys):
    """A cell coupling the halves fails the split; a sign flipped inside
    block 1 fails that block's axiom check.  Either way the (0,7) line,
    its JSON entry and the exit code say so."""
    damaged = _damaged_n07(edit)
    monkeypatch.setattr(cli, "build_n07", lambda: damaged)
    code, out, err = run(capsys, "verify", "--generated")
    assert (code, err) == (3, "")
    assert out.splitlines()[-1] == line
    assert out.count("FAIL") == 1
    code, out, err = run(capsys, "verify", "--generated", "--json")
    assert (code, err) == (3, "")
    assert json.loads(out)["generated"]["0,7"] == {
        "label": "doubled construction", "ok": False,
        "errata": errata, "missing": []}


def test_match_exact(capsys):
    code, out, _ = run(capsys, "match", "3", "0")
    assert code == 0
    assert out == "n(3,0): exact match\n"


def test_match_sign_equivalent(capsys):
    code, out, _ = run(capsys, "match", "0", "2")
    assert code == 0
    assert "diagonal sign change" in out
    assert "signs: +1 -1 +1 +1" in out


def test_match_unmatched_lists_the_differing_cells(monkeypatch, capsys):
    """A damaged reference for (5,1): one sign flipped, one cell deleted,
    one k changed.  Its hole at (v13, v4) is not reported."""
    reference = golden.golden_table(5, 1)
    cells = dict(reference.cells)
    cells[(1, 2)] = (1, -1)
    del cells[(2, 6)]
    cells[(2, 3)] = (6, -1)
    damaged = replace(reference, cells=cells)
    monkeypatch.setattr(golden, "golden_table", lambda r, s: damaged)
    code, out, err = run(capsys, "match", "5", "1")
    assert code == 3
    assert err == ""
    assert out == ("n(5,1): unmatched\n"
                   "  (v1, v2): generated z1, reference -z1\n"
                   "  (v2, v3): generated -z5, reference -z6\n"
                   "  (v2, v6): generated z2, reference 0\n")


def test_match_without_reference(capsys):
    code, out, err = run(capsys, "match", "6", "1")
    assert code == 2
    assert out == ""
    assert "no embedded table" in err


def test_relations_confirms_stored_words(capsys):
    code, out, _ = run(capsys, "relations", "6", "0")
    assert code == 0
    assert "J1J3J6 v = v" in out
    assert "FAILED" not in out
    assert out.count("confirmed") >= 6


def test_relations_without_config(capsys):
    code, _, err = run(capsys, "relations", "6", "1")
    assert code == 2
    assert "no stored basis data" in err


def test_relations_without_stored_words(capsys):
    code, out, _ = run(capsys, "relations", "1", "0")
    assert code == 0
    assert "no stored relations" in out


def test_relations_reports_a_rejected_config_in_one_line(monkeypatch, capsys):
    """A stored (6,0) config with its first basis word repeated in place
    of the last misses a coset: one line on stderr, exit 3."""
    config = basis_builder.reference_config(Signature(6, 0))
    repeated = replace(config, basis_words=(Word(1, ()),) + config.basis_words[:-1])
    monkeypatch.setitem(basis_builder._CONFIGS, (6, 0), repeated)
    code, out, err = run(capsys, "relations", "6", "0")
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err == ("n(6,0): the basis words miss or repeat a coset of the "
                   "involution system\n")


def test_relations_reports_a_failing_table_in_one_line(monkeypatch, capsys):
    """A generated (3,0) table with one pair of cells negated fails
    verify_htype: one line on stderr naming the failure, exit 3."""
    table = generate_table(Signature(3, 0))
    cells = dict(table.cells)
    for key in ((1, 2), (2, 1)):
        k, s = cells[key]
        cells[key] = (k, -s)
    monkeypatch.setattr(cli, "generate_table", lambda sig: replace(table, cells=cells))
    code, out, err = run(capsys, "relations", "3", "0")
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("n(3,0): the generated table fails verification: ")
    assert err.count("\n") == 1


def test_dims_grid(capsys):
    code, out, _ = run(capsys, "dims")
    assert code == 0
    assert "minimal admissible dimension" in out
    lines = out.splitlines()
    assert re.split(r"\s{2,}", lines[8])[:2] == ["r=7", "R2(8) 8 +"]
    assert not any(line.startswith("note") for line in lines)
    embedded = []
    for line in lines[1:10]:
        cells = re.split(r"\s{2,}", line)
        r = int(cells[0][2:])
        embedded += [(r, s) for s, cell in enumerate(cells[1:]) if cell.endswith(" +")]
    assert embedded == configured_signatures()
    assert (0, 7) not in embedded


def test_a_warm_cli_call_leaves_no_cyclic_garbage():
    argv = ["match", "3", "0"]
    for _ in range(2):
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert gc.collect() == 0


def test_importing_the_cli_leaves_out_resources_and_csv():
    """A fresh interpreter that imports htype.cli loads neither
    importlib.resources nor csv.  -I -S keeps the environment and site's
    .pth files, which may load either, out of the count."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import htype.cli; "
            "print(sorted({'importlib.resources', 'csv'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("htype ")


def test_no_command_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def _fuzz_argvs(rng, tmp_path, count):
    """count seeded argv lists over every subcommand: r and s in range
    about half the time, else negative, huge, past the 4,300-digit limit
    of int, non-integer or summing to 0; the subcommand's flags, unknown
    ones and repeats; --out to paths no file can take.  Then one valid
    gen per --out path, so that every path is met whatever the seed."""
    bad_numbers = ["0", "9", "-1", "-8", "+2", "1_0", "10**3", "1.5", "nan",
                   "x", "", " 4", "9" * 30, "9" * 5000]
    outs = [str(tmp_path), str(tmp_path / "no" / "dir.json"), "",
            str(tmp_path / "file.txt" / "under"), "x\0y",
            str(tmp_path / "no\nsuch" / "dir.json"), str(tmp_path / "ok.json")]
    own_flags = {"gen": ["--format", "csv", "latex", "json", "pdf", "--out"],
                 "verify": ["--json", "--golden", "--generated", "--all"]}
    stray_flags = ["--bogus", "-x", "--", "--version", "--json", "--out"]
    out = []
    for _ in range(count):
        command = rng.choice(["gen", "gen", "verify", "match", "dims",
                              "relations", "bogus"])
        argv = [command]
        if command in ("gen", "match", "relations") or rng.random() < 0.1:
            argv += [str(rng.randint(0, 4)) if rng.random() < 0.7
                     else rng.choice(bad_numbers) for _ in range(2)]
        for _ in range(rng.randint(0, 3)):
            pool = own_flags.get(command, [])
            flag = rng.choice(pool if pool and rng.random() < 0.8 else stray_flags)
            argv += [flag, rng.choice(outs)] if flag == "--out" else [flag]
        if rng.random() < 0.2:
            argv += argv[1:]  # every argument repeated
        out.append(argv)
    return out + [["gen", "1", "0", "--out", path] for path in outs]


def _run_caught(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_argv_fuzz_keeps_the_exit_code_contract(tmp_path):
    """300 seeded argv lists over every subcommand, and one gen per --out
    path, each run twice in process: exit code 0, 2 or 3, no traceback,
    the same stdout both times.  A NUL byte in the --out path, which only
    an in-process call can pass, is reported with exit 2, and every
    "cannot write" error, a newline in the path included, is one line."""
    (tmp_path / "file.txt").write_text("")
    codes, errs = Counter(), set()
    for argv in _fuzz_argvs(random.Random(20), tmp_path, 300):
        code, out, err = _run_caught(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        assert _run_caught(argv) == (code, out, err), argv
        codes[code] += 1
        errs.add(err)
    assert codes[0] >= 50 and codes[2] >= 50, codes
    assert "cannot write 'x\\x00y': embedded null byte\n" in errs
    written = [err for err in errs if err.startswith("cannot write")]
    assert any("no\\nsuch" in err for err in written)
    assert all(err.count("\n") == 1 for err in written)

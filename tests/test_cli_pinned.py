"""CLI output pinned byte for byte, and the tables `htype gen` emits.

Each pinned command maps to the sha256 of its stdout, stderr and exit
code in tests/cli_digests.json.  A change that alters any output, even
by one byte, fails here with the list of commands that moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import htype
from htype.basis_builder import ALIASES
from htype.cli import main
from htype.golden import golden_signatures
from htype.lie_algebra import StructureTable, verify_htype
from htype.words import Signature

PINNED = Path(__file__).with_name("cli_digests.json")
README = Path(__file__).resolve().parents[1] / "README.md"

SIGNATURES = [(r, n - r) for n in range(1, 9) for r in range(n + 1)]
STORED = sorted(set(golden_signatures()) | set(ALIASES))
VERIFY_VARIANTS = ([], ["--golden"], ["--generated"], ["--json"],
                   ["--golden", "--json"], ["--generated", "--json"])


def pinned_commands():
    cmds = []
    for r, s in SIGNATURES:
        for fmt in ("json", "csv", "latex"):
            cmds.append(["gen", str(r), str(s), "--format", fmt])
    for r, s in STORED:
        cmds.append(["match", str(r), str(s)])
        cmds.append(["relations", str(r), str(s)])
    cmds.append(["relations", "6", "1"])
    cmds += [["verify"] + flags for flags in VERIFY_VARIANTS]
    cmds.append(["dims"])
    return cmds


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def cli_digest(argv):
    text = json.dumps(list(run_cli(argv)))
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_output_matches_the_pinned_digests():
    pinned = json.loads(PINNED.read_text())
    cmds = pinned_commands()
    assert len(cmds) == 208
    assert sorted(pinned) == sorted(" ".join(argv) for argv in cmds)
    moved = [" ".join(argv) for argv in cmds
             if cli_digest(argv) != pinned[" ".join(argv)]]
    assert moved == []


def table_from_json(text):
    data = json.loads(text)
    cells = {(a, b): (k, sign) for a, b, k, sign in data["cells"]}
    missing = frozenset((a, b) for a, b in data.get("missing", []))
    return StructureTable(Signature(*data["sig"]), data["dim"], cells,
                          missing, data.get("label", ""))


def test_every_emitted_table_verifies_under_its_stated_signature():
    for r, s in SIGNATURES:
        out, err, code = run_cli(["gen", str(r), str(s)])
        assert (code, err) == (0, ""), (r, s)
        table = table_from_json(out)
        assert table.sig == Signature(r, s)
        report = verify_htype(table)
        assert report.ok, ((r, s), report.errata[:3])
    assert len(SIGNATURES) == 44


def readme_api():
    lines = README.read_text().splitlines()
    start = lines.index("## Public API")
    names = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("- `"):
            names.append(line[3:line.index("`", 3)])
    return names


def test_public_api_is_what_readme_documents():
    names = readme_api()
    assert sorted(htype.__all__) == sorted(names)
    assert len(names) == len(set(names)) == 7
    for name in names:
        assert getattr(htype, name) is not None

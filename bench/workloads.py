"""The four benchmark workloads: inputs, ops and output checks.

A workload turns a seed into a list of ops.  Each op is one call into
the package's public functions; the pass times the call alone.  After
the timed loop, `check` decides for every op whether its output is
right and returns the failed op keys together with the canonical bytes
the run digests, so two commits can be compared for byte-identical
output.  The signature sets are fixed here, not read from the package,
so a change to the package cannot change what is measured.  Ops call
through module attributes, so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass

from htype import cli, clifford_rep, golden, lie_algebra
from htype.lie_algebra import SIGN_EQUIVALENT, StructureTable
from htype.words import Signature, check_involution_system

# Signatures with a stored basis or an alias of one; `htype match` covers
# exactly these.
STORED = (
    (1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (3, 1),
    (2, 2), (1, 3), (0, 4), (5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5),
    (6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6), (7, 0), (3, 4),
    (8, 0), (7, 1), (4, 4), (3, 5), (0, 1), (0, 2), (0, 8),
)
ALIASES = ((0, 1), (0, 2), (0, 8))
GOLDEN = tuple(sig for sig in STORED if sig not in ALIASES)
FORMATS = ("json", "csv", "latex")

# Rungs past the CLI cap of r + s <= 8: (signature, module dimension).
LADDER = (((5, 3), 32), ((5, 5), 64), ((4, 6), 64), ((6, 6), 128))
LADDER_TINY = (((2, 0), 4), ((3, 0), 4))
# Involution searches: (signature, system size).
SEARCH = (((6, 7), 6), ((7, 7), 7), ((8, 7), 7))
SEARCH_TINY = (((3, 0), 1), ((5, 0), 2))


@dataclass
class Op:
    key: str
    kind: str
    call: object
    arg: object = None
    expect: object = None


class OpError:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc):
        self.text = "%s: %s" % (type(exc).__name__, exc)


def _table_text(table):
    payload = {"sig": [table.sig.r, table.sig.s], "dim": table.dim,
               "cells": table.sorted_cells(),
               "missing": sorted(table.missing)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _report_text(report):
    missing = [[list(m.cell), m.suggestion] for m in report.missing]
    return json.dumps({"ok": report.ok, "errata": list(report.errata),
                       "missing": missing}, sort_keys=True)


def _judge_all(ops, outputs, judge):
    """Failed op keys and digest texts; judge(op, out) gives (ok, text)."""
    failed, texts = [], {}
    for op, out in zip(ops, outputs):
        if isinstance(out, OpError):
            ok, text = False, out.text
        else:
            ok, text = judge(op, out)
        if not ok:
            failed.append(op.key)
        texts[op.key] = text
    return failed, texts


def _judge_table(op, out):
    # Ladder and golden-load ops: (table, report) for signature op.arg
    # at module dimension op.expect.
    table, report = out
    ok = ((table.sig.r, table.sig.s) == op.arg and table.dim == op.expect
          and report.ok)
    return ok, _table_text(table) + _report_text(report)


# --- catalog -------------------------------------------------------------

def _cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def catalog_ops(seed, tiny):
    sigs = [(r, n - r) for n in range(1, 3 if tiny else 9) for r in range(n + 1)]
    random.Random(seed).shuffle(sigs)
    ops = []
    for r, s in sigs:
        for fmt in FORMATS:
            argv = ["gen", str(r), str(s), "--format", fmt]
            ops.append(Op(" ".join(argv), "gen", _cli_call, argv))
        if (r, s) in STORED:
            argv = ["match", str(r), str(s)]
            ops.append(Op(" ".join(argv), "match", _cli_call, argv))
    ops.append(Op("verify --json", "verify", _cli_call, ["verify", "--json"]))
    return ops


def _cells_from_json(text):
    data = json.loads(text)
    cells = {(a, b): (k, sign) for a, b, k, sign in data["cells"]}
    missing = frozenset((a, b) for a, b in data.get("missing", []))
    return tuple(data["sig"]), data["dim"], cells, missing


def _cells_from_csv(text):
    lines = text.splitlines()
    if lines[0] != "a,b,k,sign":
        raise ValueError("unexpected csv header")
    cells = {}
    for line in lines[1:]:
        a, b, k, sign = (int(x) for x in line.split(","))
        cells[(a, b)] = (k, sign)
    return cells


def _cells_from_latex(text):
    rows = [line for line in text.splitlines() if line.startswith("$v_{")]
    cells, missing = {}, set()
    for a, row in enumerate(rows, start=1):
        entries = row.rstrip("\\ ").split(" & ")[1:]
        if len(entries) != len(rows):
            raise ValueError("latex row v%d has %d entries" % (a, len(entries)))
        for b, entry in enumerate(entries, start=1):
            if entry == "":
                missing.add((a, b))
            elif entry != "$0$":
                sign = -1 if entry.startswith("$-") else 1
                k = int(entry[entry.index("{") + 1:entry.index("}")])
                cells[(a, b)] = (k, sign)
    return cells, frozenset(missing)


def catalog_check(ops, outputs):
    """Failed op keys and digest text for one catalog pass.

    A gen op passes when it exits 0, its output encodes the same cells
    as the json output for that signature, and that table passes
    verify_htype under the signature it states.  The table of each
    signature is verified once and the verdict shared by its formats.
    """
    by_key = dict(zip((op.key for op in ops), outputs))
    verdicts = {}

    def json_table_ok(r, s):
        if (r, s) not in verdicts:
            out = by_key["gen %d %d --format json" % (r, s)]
            verdicts[(r, s)] = (False, None, None)
            if not isinstance(out, OpError) and out[0] == 0:
                sig, dim, cells, missing = _cells_from_json(out[1])
                table = StructureTable(Signature(*sig), dim, cells, missing)
                ok = sig == (r, s) and lie_algebra.verify_htype(table).ok
                verdicts[(r, s)] = (ok, cells, missing)
        return verdicts[(r, s)]

    def judge(op, out):
        code, text = out
        try:
            if code != 0:
                ok = False
            elif op.kind == "gen":
                r, s, fmt = int(op.arg[1]), int(op.arg[2]), op.arg[4]
                ok, cells, missing = json_table_ok(r, s)
                if ok and fmt == "csv":
                    ok = _cells_from_csv(text) == cells
                elif ok and fmt == "latex":
                    ok = _cells_from_latex(text) == (cells, missing)
            elif op.kind == "verify":
                json.loads(text)
                ok = True
            else:
                ok = True
        except (ValueError, KeyError, IndexError):
            ok = False
        return ok, "%s\n%s" % out

    return _judge_all(ops, outputs, judge)


# --- ladder --------------------------------------------------------------

def _derive_and_verify(sig):
    table = lie_algebra.derive_table(Signature(*sig))
    return table, lie_algebra.verify_htype(table)


def ladder_ops(seed, tiny):
    rungs = list(LADDER_TINY if tiny else LADDER)
    random.Random(seed).shuffle(rungs)
    return [Op("derive %d %d" % sig, "dim%d" % dim, _derive_and_verify, sig, dim)
            for sig, dim in rungs]


def ladder_check(ops, outputs):
    return _judge_all(ops, outputs, _judge_table)


# --- search --------------------------------------------------------------

def search_ops(seed, tiny):
    cases = list(SEARCH_TINY if tiny else SEARCH)
    random.Random(seed).shuffle(cases)
    return [Op("search %d %d" % sig, "system",
               lambda sig: clifford_rep.find_involution_system(Signature(*sig)),
               sig, k)
            for sig, k in cases]


def _judge_system(op, out):
    try:
        check_involution_system(Signature(*op.arg), out)
        ok = len(out) == op.expect
    except ValueError:
        ok = False
    return ok, " ".join("%s:%+d" % (w, e) for w, e in out)


def search_check(ops, outputs):
    return _judge_all(ops, outputs, _judge_system)


# --- audit ---------------------------------------------------------------

def _load_and_verify(sig):
    table = golden.golden_table(*sig)
    return table, lie_algebra.verify_htype(table)


def _with_cells(table, cells):
    return StructureTable(table.sig, table.dim, cells, table.missing, table.label)


def audit_ops(seed, tiny):
    """Load checks, seeded sign-change comparisons and one-pair flips.

    The sign change multiplies cell (a, b) by sigma_a sigma_b; the
    expected answer is sigma normalised to sigma_1 = +1, which is how
    compare_tables reports it (every golden table is connected).  A
    flip negates one antisymmetric pair of cells, which no valid table
    survives; (1, 0) is skipped as its only flip is again valid.
    """
    rng = random.Random(seed)
    ops = []
    for sig in GOLDEN[:3] if tiny else GOLDEN:
        table = golden.golden_table(*sig)
        ops.append(Op("load %d %d" % sig, "load", _load_and_verify, sig,
                      table.dim))
        sigma = [rng.choice((1, -1)) for _ in range(table.dim)]
        expected = tuple(x * sigma[0] for x in sigma)
        if all(x == 1 for x in expected):
            b = rng.randrange(1, table.dim)
            sigma[b] = -sigma[b]
            expected = tuple(x * sigma[0] for x in sigma)
        copy = _with_cells(table, {
            (a, b): (k, s * sigma[a - 1] * sigma[b - 1])
            for (a, b), (k, s) in table.cells.items()})
        ops.append(Op("compare %d %d" % sig, "compare",
                      lambda pair: lie_algebra.compare_tables(*pair), (table, copy),
                      expected))
        if table.sig.n < 2:
            continue
        for (a, b), (k, s) in sorted(table.cells.items()):
            if a > b:
                continue
            cells = dict(table.cells)
            cells[(a, b)] = (k, -s)
            if (b, a) in cells:
                cells[(b, a)] = (k, s)
            ops.append(Op("flip %d %d v%d v%d" % (sig + (a, b)), "flip",
                          lambda t: lie_algebra.verify_htype(t),
                          _with_cells(table, cells)))
    rng.shuffle(ops)
    return ops


def _judge_audit(op, out):
    if op.kind == "load":
        return _judge_table(op, out)
    if op.kind == "compare":
        ok = out.status == SIGN_EQUIVALENT and out.sigma == op.expect
        return ok, "%s %s" % (out.status, out.sigma)
    return not out.ok, _report_text(out)


def audit_check(ops, outputs):
    return _judge_all(ops, outputs, _judge_audit)


WORKLOADS = {
    "catalog": (catalog_ops, catalog_check),
    "ladder": (ladder_ops, ladder_check),
    "search": (search_ops, search_check),
    "audit": (audit_ops, audit_check),
}

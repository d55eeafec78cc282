"""Command line front end for generating and checking the tables.

Subcommands:

  gen        print the structure table of one signature (json, csv, latex)
  verify     run the axiom checks on the embedded or generated tables
  match      compare a generated table against the embedded one
  dims       show the module type grid with minimal admissible dimensions
  relations  confirm the stored involutions and word relations

Exit codes: 0 success, 2 bad arguments or missing data, 3 failed check.
All output is deterministic for a given package version.
"""

import argparse
import functools
import json
import sys

from . import __version__
from .basis_builder import (configured_signatures, has_reference_config,
                            reference_config)
from .clifford_rep import (ConstructionError, GeneratorSet, clifford_type,
                           minimal_admissible_dimension)
from .golden import build_n07, match_generated, split_blocks, verify_all_golden
from .lie_algebra import (EXACT, SIGN_EQUIVALENT, derive_table, generate_table,
                          reconstruct_J, verify_htype)
from .words import Signature, format_word, reduce_mod_system


def _signature(parser, r, s):
    if not (0 <= r <= 8 and 0 <= s <= 8 and 1 <= r + s <= 8):
        parser.error("need 0 <= r, s <= 8 and 1 <= r + s <= 8, got (%d, %d)"
                     % (r, s))
    return Signature(r, s)


def _build_table(sig):
    """The table gen prints.  _table_from_words writes both kinds with no
    missing cell, so the renderers below have no missing cell to show."""
    if has_reference_config(sig):
        return generate_table(sig)
    return derive_table(sig)


def _json_text(table):
    payload = {
        "sig": [table.sig.r, table.sig.s],
        "dim": table.dim,
        "cells": table.sorted_cells(),
    }
    if table.label:
        payload["label"] = table.label
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_text(table):
    return "a,b,k,sign\n" + "".join("%d,%d,%d,%d\n" % cell
                                     for cell in table.sorted_cells())


def _latex_cell(val):
    if val is None:
        return "$0$"
    k, sign = val
    return "$-z_{%d}$" % k if sign < 0 else "$z_{%d}$" % k


def _latex_text(table):
    n = table.dim
    lines = ["\\begin{tabular}{c|%s}" % ("c" * n)]
    header = ["$[r, c]$"] + ["$v_{%d}$" % b for b in range(1, n + 1)]
    lines.append(" & ".join(header) + " \\\\")
    lines.append("\\hline")
    for a in range(1, n + 1):
        row = ["$v_{%d}$" % a]
        row += [_latex_cell(table.entry(a, b)) for b in range(1, n + 1)]
        lines.append(" & ".join(row) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _json_text, "csv": _csv_text, "latex": _latex_text}


def _cmd_gen(parser, args):
    sig = _signature(parser, args.r, args.s)
    text = _RENDERERS[args.format](_build_table(sig))
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:
        # open raises ValueError on a path with a NUL byte; %r keeps a
        # newline or NUL in the path from breaking the one-line error.
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print("cannot write %r: %s" % (args.out, reason), file=sys.stderr)
        return 2
    return 0


def _cell_text(val):
    if not val:  # a zero cell: None in a table, 0 as a suggestion
        return "0"
    k, sign = val
    return "%sz%d" % ("-" if sign < 0 else "", k)


def _suggestion_text(suggestion):
    if suggestion is None:
        return "no suggested value"
    return "suggested value " + _cell_text(suggestion)


def _verdict(report, name):
    """Text lines and JSON entry of one report."""
    lines = ["n%s %s: %s" % (report.sig, name, "ok" if report.ok else "FAIL")]
    missing = []
    for miss in report.missing:
        lines.append("  missing cell (v%d, v%d): %s"
                     % (miss.cell[0], miss.cell[1],
                        _suggestion_text(miss.suggestion)))
        missing.append({"cell": miss.cell, "suggestion": miss.suggestion})
    for erratum in report.errata:
        lines.append("  erratum: %s" % erratum)
    return lines, {"label": report.label, "ok": report.ok,
                   "errata": report.errata, "missing": missing}


def _doubled_verdict():
    """Text lines and JSON entry for the (0,7) table: it must split into
    two blocks with no cross brackets, each verifying as (7,0)."""
    doubled = build_n07()
    try:
        blocks = split_blocks(doubled, Signature(7, 0))
    except ValueError as exc:
        errata, detail = [str(exc)], str(exc)
    else:
        errata = [e for block in blocks for e in verify_htype(block).errata]
        detail = "blocks checked as (7,0), cross brackets zero"
    ok = not errata
    line = "n(0,7) %s: %s (%s)" % (doubled.label, "ok" if ok else "FAIL", detail)
    return [line], {"label": doubled.label, "ok": ok, "errata": errata,
                    "missing": []}


def _cmd_verify(parser, args):
    sections = {}  # section -> {"r,s": (text lines, JSON entry)}
    if args.scope in ("golden", "all"):
        reports = sorted(verify_all_golden().items())
        sections["golden"] = {"%d,%d" % key: _verdict(report, report.label)
                              for key, report in reports}
    if args.scope in ("generated", "all"):
        section = sections["generated"] = {}
        for key in configured_signatures():
            report = verify_htype(generate_table(Signature(*key)))
            section["%d,%d" % key] = _verdict(report, "generated")
        section["0,7"] = _doubled_verdict()

    if args.json:
        payload = {name: {key: entry for key, (_lines, entry) in section.items()}
                   for name, section in sections.items()}
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for name, section in sections.items():
            for lines, _entry in section.values():
                print("\n".join(lines))
            if name == "golden":
                print("%d embedded tables checked" % len(section))
    return 0 if all(entry["ok"] for section in sections.values()
                    for _lines, entry in section.values()) else 3


def _cmd_match(parser, args):
    sig = _signature(parser, args.r, args.s)
    try:
        result = match_generated(sig.r, sig.s)
    except KeyError:
        print("no embedded table for n%s" % sig, file=sys.stderr)
        return 2
    if result.status == EXACT:
        print("n%s: exact match" % sig)
        return 0
    if result.status == SIGN_EQUIVALENT:
        print("n%s: matches after a diagonal sign change" % sig)
        print("signs: " + " ".join("%+d" % x for x in result.sigma))
        return 0
    print("n%s: unmatched" % sig)
    for (a, b), generated, reference in result.diffs:
        print("  (v%d, v%d): generated %s, reference %s"
              % (a, b, _cell_text(generated), _cell_text(reference)))
    return 3


def _cmd_dims(parser, args):
    rows = [["r\\s"] + ["s=%d" % s for s in range(9)]]
    for r in range(9):
        row = ["r=%d" % r]
        for s in range(9):
            cell = "%s %d" % (clifford_type(r, s).label,
                              minimal_admissible_dimension(r, s))
            if r + s >= 1 and has_reference_config(Signature(r, s)):
                cell += " +"
            row.append(cell)
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(10)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print()
    print("cell: module type over the reals, minimal admissible dimension")
    print("*  doubled module (both inequivalent halves)")
    print("+  structure table embedded in the package")
    return 0


def _cmd_relations(parser, args):
    sig = _signature(parser, args.r, args.s)
    if not has_reference_config(sig):
        print("no stored basis data for n%s" % sig, file=sys.stderr)
        return 2
    config = reference_config(sig)
    # The words act through the generators rebuilt from the emitted
    # table, in its basis v_a = W_a v, so the initial vector is v_1.
    try:
        table = generate_table(sig)
    except ConstructionError as exc:
        print("n%s: %s" % (sig, exc), file=sys.stderr)
        return 3
    report = verify_htype(table)
    if not report.ok:
        print("n%s: the generated table fails verification: %s"
              % (sig, "; ".join(report.errata)), file=sys.stderr)
        return 3
    gens = GeneratorSet(sig, table.dim, reconstruct_J(table, report.eta),
                        report.eta)
    v = (0, 1)
    bad = False
    print("n%s involution system, acting on the initial vector:" % sig)
    for inv in config.involutions:
        ok = gens.act_word(inv.word, v) == (v[0], inv.eigensign * v[1])
        bad = bad or not ok
        print("  %s  eigensign %+d  matrix action %s"
              % (format_word(inv.word), inv.eigensign,
                 "confirmed" if ok else "FAILED"))
    if not config.relations:
        print("no stored relations beyond the involution system")
        return 3 if bad else 0
    print("stored relations, each expected to fix the initial vector:")
    for rel in config.relations:
        scalar = reduce_mod_system(sig, config.involutions, rel)
        fixes = gens.act_word(rel, v) == v
        ok = scalar == 1 and fixes
        bad = bad or not ok
        print("  %s v = v  word reduction %+d  matrix action %s"
              % (format_word(rel), scalar,
                 "confirmed" if fixes else "FAILED"))
    return 3 if bad else 0


# Built once: a parser is a web of reference cycles that only the cyclic
# garbage collector frees.
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="htype",
        description="Exact structure constant tables for pseudo H-type "
                    "Lie algebras.")
    parser.add_argument("--version", action="version",
                        version="htype %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    gen = sub.add_parser("gen", help="print the table for one signature")
    gen.add_argument("r", type=int)
    gen.add_argument("s", type=int)
    gen.add_argument("--format", choices=sorted(_RENDERERS), default="json")
    gen.add_argument("--out", metavar="FILE", default=None)
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="run the axiom checks")
    scope = verify.add_mutually_exclusive_group()
    scope.add_argument("--golden", dest="scope", action="store_const",
                       const="golden", help="embedded tables only")
    scope.add_argument("--generated", dest="scope", action="store_const",
                       const="generated", help="generated tables only")
    scope.add_argument("--all", dest="scope", action="store_const",
                       const="all", help="both (default)")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify, scope="all")

    match = sub.add_parser("match",
                           help="compare generated against embedded")
    match.add_argument("r", type=int)
    match.add_argument("s", type=int)
    match.set_defaults(func=_cmd_match)

    dims = sub.add_parser("dims", help="module type and dimension grid")
    dims.set_defaults(func=_cmd_dims)

    relations = sub.add_parser("relations",
                               help="confirm involutions and relations")
    relations.add_argument("r", type=int)
    relations.add_argument("s", type=int)
    relations.set_defaults(func=_cmd_relations)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())

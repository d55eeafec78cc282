"""Embedded reference tables and the checks that run against them.

The JSON files under golden_data/ are verbatim transcriptions of the
published commutation tables, one file per signature, checksummed so a
corrupted copy cannot load.  Three signatures share a table with their
mirror image and are resolved through an alias map.  match_generated
returns lie_algebra.compare_tables of a generated table and its reference.

The files are read from golden_data beside this module: pip installs a
wheel unzipped and pyproject.toml ships golden_data/*.json as package
data, so the directory exists on every install.  Only a zip import,
which no install reaches, would lack it.

This module also hosts the doubled construction for the (0, 7) algebra,
whose module is two copies of the (7, 0) module with opposite central
action.
"""

import json
import os
from functools import lru_cache
from itertools import chain

from .basis_builder import ALIASES, reference_config
from .clifford_rep import minimal_admissible_dimension
from .lie_algebra import (
    StructureTable,
    _table_from_masks,
    _word_masks,
    cell_errata,
    compare_tables,
    generate_table,
    verify_htype,
)
from .words import Signature


_DATA_DIR = os.path.join(os.path.dirname(__file__), "golden_data")


def golden_signatures():
    """Signatures with their own embedded table file."""
    return sorted((int(name[1]), int(name[2]))
                  for name in os.listdir(_DATA_DIR) if name.endswith(".json"))


def _shape_error(groups):
    """The loader's error for the first row of groups, (name, rows,
    width) triples, that is not a list of width entries.  It is built
    only once a row has failed to flatten or to unpack, so a good file
    makes no pass over its cells for it."""
    for name, rows, width in groups:
        for row in rows:
            if type(row) is not list or len(row) != width:
                return ValueError("table data has %s %r, not a list of %d ints"
                                  % (name, row, width))


@lru_cache(maxsize=None)
def _sha256():
    """sha256 from the lean module that hashlib falls back on, as random
    takes sha512: _sha2 from Python 3.12, _sha256 before.  hashlib, which
    loads OpenSSL, only where neither exists; the digest is the same.
    Called, not imported at the top: gen and dims load no table."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def table_from_data(data):
    """Validate a raw table dict and build the StructureTable.

    Rejects data that is not a dict, missing keys, bad checksums, a cell
    that is not a list of four ints, a sig or missing cell that is not a
    list of two, a table number, dim or entry that is not an int (1.0
    and True included), a sig off the grid 0 <= r, s <= 8, a dim other
    than the signature's minimal admissible dimension, duplicate cells
    and every break of the cell rules of lie_algebra.cell_errata, so a
    damaged file never loads quietly.  The grid and dim bounds keep
    verify_htype's work, sized by n and dim, to that of a shipped table.
    Every rejection is a ValueError in the loader's own words.
    """
    if not isinstance(data, dict):
        raise ValueError("table data has type %s, not dict" % type(data).__name__)
    required = {"table", "sig", "dim", "cells", "sha256"}
    missing_keys = required - set(data)
    if missing_keys:
        raise ValueError("table data lacks %s" % sorted(missing_keys))
    payload = {k: v for k, v in data.items() if k != "sha256"}
    digest = _sha256()(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    if digest != data["sha256"]:
        raise ValueError("table data fails its checksum")
    sig, rows, holes = data["sig"], data["cells"], data.get("missing", [])
    for key, value in (("cells", rows), ("missing", holes)):
        if type(value) is not list:
            raise ValueError("table data has %s %r, not a list" % (key, value))
    groups = (("sig", [sig], 2), ("cell", rows, 4), ("missing cell", holes, 2))
    try:
        entries = {"table": [data["table"]], "sig": list(sig), "dim": [data["dim"]],
                   "cell": list(chain.from_iterable(rows)),
                   "missing cell": list(chain.from_iterable(holes))}
    except TypeError:
        raise _shape_error(groups) from None
    for name, values in entries.items():
        if not set(map(type, values)) <= {int}:
            bad = next(x for x in values if type(x) is not int)
            raise ValueError("table data has %s entry %r, not an int"
                             % (name, bad))
    try:
        r, s = sig
        cells = {(a, b): (k, sign) for a, b, k, sign in rows}
        holes = frozenset((a, b) for a, b in holes)
    except ValueError:
        raise _shape_error(groups) from None
    if len(cells) < len(rows):
        seen = set()
        for a, b, _k, _sign in rows:
            if (a, b) in seen:
                raise ValueError("duplicate cell (%d, %d)" % (a, b))
            seen.add((a, b))
    if not (0 <= r <= 8 and 0 <= s <= 8):
        raise ValueError("table data has sig %r, off the grid 0 <= r, s <= 8" % (sig,))
    dim = minimal_admissible_dimension(r, s)
    if data["dim"] != dim:
        raise ValueError("table data has dim %d, not %d, the minimal admissible "
                         "dimension of (%d,%d)" % (data["dim"], dim, r, s))
    label = "reference table %d" % data["table"]
    table = StructureTable(Signature(r, s), dim, cells, holes, label)
    errata = cell_errata(table)
    if errata:
        raise ValueError(errata[0])
    return table


def golden_table(r, s):
    """The embedded reference table for the signature, aliases resolved."""
    key = ALIASES.get((r, s), (r, s))
    path = os.path.join(_DATA_DIR, "n%d%d.json" % key)
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise KeyError("no reference table for (%d, %d)" % (r, s)) from None
    return table_from_data(data)


def verify_all_golden():
    """Run the axiom checks on every embedded table."""
    return {key: verify_htype(golden_table(*key)) for key in golden_signatures()}


def match_generated(r, s):
    """compare_tables(generated, embedded) for (r, s); the embedded table
    loads first, so a signature without one raises KeyError at once."""
    reference = golden_table(r, s)
    return compare_tables(generate_table(Signature(r, s)), reference)


def build_n07():
    """The 16-dimensional table for the (0, 7) algebra.

    The module doubles the (7, 0) one, and the two halves never bracket
    into each other.  The second half negates every J_k, which negates
    each odd-length word, so it is the (7, 0) module with the eigensign
    of each odd-length involution flipped, on the same basis words.
    """
    sig = Signature(7, 0)
    config = reference_config(sig)
    twin = tuple(inv._replace(eigensign=-inv.eigensign)
                 if len(inv.word.letters) % 2 else inv
                 for inv in config.involutions)
    basis = _word_masks(config.involutions, config.basis_words)
    plus = _table_from_masks(sig, config.involutions, basis)
    minus = _table_from_masks(sig, twin, basis)
    cells = dict(plus.cells)
    cells.update(((a + plus.dim, b + plus.dim), val)
                 for (a, b), val in minus.cells.items())
    return StructureTable(Signature(0, 7), 2 * plus.dim, cells, frozenset(),
                          "doubled construction")


def split_blocks(table, sig):
    """Split a doubled table into two diagonal blocks of signature sig.

    Raises when any nonzero cell couples the halves, so a successful
    split certifies the cross brackets vanish.
    """
    half = table.dim // 2
    if 2 * half != table.dim:
        raise ValueError("odd dimension cannot split")
    first, second = {}, {}
    for (a, b), val in sorted(table.cells.items()):
        if a <= half and b <= half:
            first[(a, b)] = val
        elif a > half and b > half:
            second[(a - half, b - half)] = val
        else:
            raise ValueError("cell (v%d, v%d) couples the two halves" % (a, b))
    return (StructureTable(sig, half, first, frozenset(), table.label + ", block 1"),
            StructureTable(sig, half, second, frozenset(), table.label + ", block 2"))


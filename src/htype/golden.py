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

import hashlib
import json
import os
from itertools import chain

from .basis_builder import ALIASES, reference_config
from .lie_algebra import (
    StructureTable,
    _table_from_words,
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


def table_from_data(data):
    """Validate a raw table dict and build the StructureTable.

    Rejects missing keys, bad checksums, a sig, dim or cell entry that
    is not an int (1.0 and True included), duplicate cells and every
    break of the cell rules of lie_algebra.cell_errata, so a damaged
    file never loads quietly.
    """
    required = {"table", "sig", "dim", "cells", "sha256"}
    missing_keys = required - set(data)
    if missing_keys:
        raise ValueError("table data lacks %s" % sorted(missing_keys))
    payload = {k: v for k, v in data.items() if k != "sha256"}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    if digest != data["sha256"]:
        raise ValueError("table data fails its checksum")
    entries = {"sig": data["sig"], "dim": [data["dim"]],
               "cell": list(chain.from_iterable(data["cells"])),
               "missing cell": list(chain.from_iterable(data.get("missing", [])))}
    for name, values in entries.items():
        if not set(map(type, values)) <= {int}:
            bad = next(x for x in values if type(x) is not int)
            raise ValueError("table data has %s entry %r, not an int"
                             % (name, bad))
    cells = {}
    for a, b, k, sign in data["cells"]:
        if (a, b) in cells:
            raise ValueError("duplicate cell (%d, %d)" % (a, b))
        cells[(a, b)] = (k, sign)
    r, s = data["sig"]
    holes = frozenset((a, b) for a, b in data.get("missing", []))
    label = "reference table %d" % data["table"]
    table = StructureTable(Signature(r, s), data["dim"], cells, holes, label)
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
    plus = _table_from_words(sig, config.involutions, config.basis_words)
    minus = _table_from_words(sig, twin, config.basis_words)
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


"""Seeded structural fuzzing of the golden loader, of verify_htype and
of compare_tables.

The loader target: each case takes one of the shipped table files and
replaces one to three of its JSON nodes, the root included, with None, a
bool, a float, a string, a list, a dict or +-10^30, and then reseals the
checksum.  Half of the nodes are drawn from the header (the root, its
values and the entries of sig), as the header sizes everything the
loader and verify_htype build; the rest uniformly from all nodes.  The
contract: golden.table_from_data raises ValueError, or it loads a table
that lie_algebra.verify_htype judges without raising.

The verify target: each case takes a table of dim <= 8 from
verify_oracle.base_tables and replaces one to three of one cell's a, b,
k and s with 0, -1, N + 1, n + 1, an index that a list one longer than
N or n would wrap onto the slot of a, b or k (a - (N + 1), b - (N + 1),
k - (n + 1)), +-10^30, a bool, 1.0, 2.5, 2, "1", None, Fraction(1) or
+-1+0j.
The contract: verify_htype gives the report of verify_oracle.slow_report,
the cell-walking referee.  The signature, the dim and the shape of each
cell, a key of two entries and a value of two, are left alone.

The shape target: each case takes a table of dim <= 8 from
verify_oracle.base_tables and makes one to three edits, each one of:
a cell's key replaced by (a, b, k), (a,), (), "ab", a or None; a
cell's value replaced by k, (k,), (k, s, 0), (), None or "ks"; or a
missing cell added that is (b, a, 0), (0,), "", 0 or "xy".  No key
is a missing cell added, so compare_tables skips no edited cell.
The contract: verify_htype gives slow_report's report, which is not
ok, and compare_tables of the table and its base, both ways, and of
the table with itself returns, unmatched where a cell was edited.

Each case runs under signal.alarm, and the loop under a lowered soft
RLIMIT_AS, restored afterwards, so a case that hangs or grows without
bound fails its own check instead of stalling or exhausting the host.

The cases are a fixed sequence from SEED, so any count repeats the
first cases of every larger one.  Tier-1 checks LOADER_CASES and
VERIFY_CASES of them; to check ten times as many, run from the
repository root

    PYTHONPATH=src:tests python -c 'import fuzz; fuzz.check_loader(10 * fuzz.LOADER_CASES)'
    PYTHONPATH=src:tests python -c 'import fuzz; fuzz.check_verify(10 * fuzz.VERIFY_CASES)'
    PYTHONPATH=src:tests python -c 'import fuzz; fuzz.check_shape(10 * fuzz.SHAPE_CASES)'
"""

import json
import random
import resource
import signal
from fractions import Fraction

from conftest import raw_data, resign
from htype.golden import golden_signatures, table_from_data
from htype.lie_algebra import UNMATCHED, compare_tables, verify_htype
from verify_oracle import base_tables, slow_report

SEED = 1604
LOADER_CASES = 6000
VERIFY_CASES = 4000
SHAPE_CASES = 2000
CASE_SECONDS = 2
# Address space the loop may add to the process's own, in bytes.
HEADROOM = 1 << 30
HUGE = 10 ** 30

# One maker per kind of replacement; each call builds a fresh value, so
# a later edit inside a replaced list or dict changes no other case.
REPLACEMENTS = (
    lambda rng: None,
    lambda rng: rng.random() < 0.5,
    lambda rng: rng.choice((0.0, 1.0, 2.5, -1.0)),
    lambda rng: rng.choice(("", "1", "sig")),
    lambda rng: [[], [1], [1, 0], [[1, 2, 1, 1]]][rng.randrange(4)],
    lambda rng: [{}, {"sig": [1, 0]}][rng.randrange(2)],
    lambda rng: rng.choice((HUGE, -HUGE)),
)


class CaseTimeout(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _on_alarm(signum, frame):
    raise CaseTimeout("no verdict within %d s" % CASE_SECONDS)


def _paths(node, path=()):
    """The path of node and of every node below it, keys and indices."""
    yield path
    if type(node) is dict:
        items = node.items()
    elif type(node) is list:
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(data, path, value):
    """data with the node at path replaced by value (value itself for
    the root)."""
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def cases(count):
    """count (file name, edits, data) triples: data is the resealed
    mutation, edits the list of (path, replacement) made in order."""
    rng = random.Random(SEED)
    texts = {"n%d%d.json" % key: json.dumps(raw_data(*key)) for key in golden_signatures()}
    names = sorted(texts)
    for _ in range(count):
        name = rng.choice(names)
        data = json.loads(texts[name])
        edits = []
        for _ in range(rng.randint(1, 3)):
            paths = list(_paths(data))
            header = [p for p in paths if len(p) <= 1 or p[0] == "sig"]
            path = rng.choice(header if rng.random() < 0.5 else paths)
            value = rng.choice(REPLACEMENTS)(rng)
            edits.append((path, repr(value)))
            data = _replace(data, path, value)
        if type(data) is dict:
            resign(data)
        yield name, edits, data


def _judge(data):
    try:
        table = table_from_data(data)
    except ValueError:
        return
    verify_htype(table)


def verify_cases(count):
    """count (table name, edits, table) triples: edits the list of
    (entry, replacement) made in one cell, the entry named a, b, k or s."""
    rng = random.Random(SEED)
    bases = [(name, table) for name, table in base_tables() if table.dim <= 8]
    for _ in range(count):
        name, table = rng.choice(bases)
        n_vec, n = table.dim, table.sig.n
        (a, b), (k, s) = rng.choice(sorted(table.cells.items()))
        values = (0, -1, n_vec + 1, n + 1, a - n_vec - 1, b - n_vec - 1, k - n - 1,
                  HUGE, -HUGE, True, False, 1.0, 2.5, 2, "1", None, Fraction(1),
                  1 + 0j, -1 + 0j)
        entries = [a, b, k, s]
        edits = []
        for index in rng.sample(range(4), rng.randint(1, 3)):
            entries[index] = rng.choice(values)
            edits.append(("abks"[index], entries[index]))
        cells = dict(table.cells)
        del cells[(a, b)]
        cells[tuple(entries[:2])] = tuple(entries[2:])
        yield name, edits, table._replace(cells=cells)


def _same_report(table):
    report = verify_htype(table)
    mine, theirs = (report.ok, report.errata, report.eta, report.missing), slow_report(table)
    if mine != theirs:
        raise AssertionError("verify_htype gives %r, slow_report %r" % (mine, theirs))


def shape_cases(count):
    """count (table name, edits, (base, table, edited)) triples: edits
    the list of (kind, cell, replacement) made in order, and edited true
    when a cell's key or value was replaced."""
    rng = random.Random(SEED)
    bases = [(name, table, sorted(table.cells.items()))
             for name, table in base_tables() if table.dim <= 8]
    for _ in range(count):
        name, base, items = rng.choice(bases)
        cells, missing = dict(base.cells), set(base.missing)
        edits = []
        for (a, b), (k, s) in rng.sample(items, min(len(items), rng.randint(1, 3))):
            kind = rng.choice(("key", "value", "missing"))
            if kind == "key":
                new = rng.choice(((a, b, k), (a,), (), "ab", a, None))
                cells[new] = cells.pop((a, b))
            elif kind == "value":
                new = rng.choice((k, (k,), (k, s, 0), (), None, "ks"))
                cells[(a, b)] = new
            else:
                new = rng.choice(((b, a, 0), (0,), "", 0, "xy"))
                missing.add(new)
            edits.append((kind, (a, b), new))
        table = base._replace(cells=cells, missing=frozenset(missing))
        edited = any(kind != "missing" for kind, _cell, _new in edits)
        yield name, edits, (base, table, edited)


def _shape_contract(payload):
    base, table, edited = payload
    _same_report(table)
    if verify_htype(table).ok:
        raise AssertionError("verify_htype passes a table of another shape")
    for left, right in ((base, table), (table, base), (table, table)):
        status = compare_tables(left, right).status
        if edited and status != UNMATCHED:
            raise AssertionError("compare_tables calls an edited cell %s" % status)


def _address_space():
    """The process's address space in bytes, from /proc/self/statm."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[0]) * resource.getpagesize()


def _check(cases, judge):
    """judge(payload) for each (name, edits, payload) of cases, each
    under the alarm and all under the address-space cap; raise
    AssertionError naming the first case whose judge raises."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = _address_space() + HEADROOM
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if soft == resource.RLIM_INFINITY or soft > cap:
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        for index, (name, edits, payload) in enumerate(cases):
            signal.alarm(CASE_SECONDS)
            try:
                judge(payload)
            except (Exception, CaseTimeout) as exc:
                raise AssertionError("case %d of seed %d, %s with %s: %s: %s"
                                     % (index, SEED, name, edits, type(exc).__name__, exc)) from exc
            finally:
                signal.alarm(0)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        signal.signal(signal.SIGALRM, handler)


def check_loader(count):
    """Check the loader contract on the first count cases; raise
    AssertionError naming the first case that breaks it."""
    _check(cases(count), _judge)


def check_verify(count):
    """Check the verify contract on the first count verify cases; raise
    AssertionError naming the first case that breaks it."""
    _check(verify_cases(count), _same_report)


def check_shape(count):
    """Check the shape contract on the first count shape cases; raise
    AssertionError naming the first case that breaks it."""
    _check(shape_cases(count), _shape_contract)

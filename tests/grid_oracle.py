"""The classification grid of Cl(r, s), 0 <= r, s <= 8, as printed.

The package derives every cell from Bott periodicity; this is the grid
it once stored, hand-copied cell by cell, kept so the tests can hold
the rule against it.  Rows are indexed by s, columns by r.  Cell
syntax: kind, optional (size), trailing "*" when the minimal admissible
module doubles the irreducible one.

One printed cell is wrong.  (7, 0) repeats R(8), but seven
anticommuting J with J^2 = -1 generate R(8) + R(8) (Lawson-Michelsohn,
Spin Geometry, ch. I sec. 4), so the cell reads R2(8).  Both give a
module of real dimension 8.
"""

GRID_ROWS = {
    0: ["R", "C", "H", "H2", "H(2)", "C(4)", "R(8)", "R(8)", "R(16)"],
    1: ["R2*", "R(2)*", "C(2)*", "H(2)", "H2(2)*", "H(4)", "C(8)", "R(16)", "R2(16)*"],
    2: ["R(2)*", "R2(2)*", "R(4)*", "C(4)", "H(4)", "H2(4)", "H(8)", "C(16)", "R(32)*"],
    3: ["C(2)*", "R(4)*", "R2(4)*", "R(8)", "C(8)", "H(8)", "H2(8)*", "H(16)", "C(32)*"],
    4: ["H(2)", "C(4)", "R(8)", "R2(8)", "R(16)", "C(16)", "H(16)", "H2(16)", "H(32)"],
    5: ["H2(2)*", "H(4)", "C(8)", "R(16)", "R2(16)*", "R(32)*", "C(32)*", "H(32)", "H2(32)*"],
    6: ["H(4)", "H2(4)", "H(8)", "C(16)", "R(32)*", "R2(32)*", "R(64)*", "C(64)", "H(64)"],
    7: ["C(8)", "H(8)", "H2(8)*", "H(16)", "C(32)*", "R(64)*", "R2(64)*", "R(128)", "C(128)"],
    8: ["R(16)", "C(16)", "H(16)", "H2(16)", "H(32)", "C(64)", "R(128)", "R2(128)", "R(256)"],
}

# The corrected label of each misprinted cell.
ERRATA = {(7, 0): "R2(8)"}

# Real dimension of the irreducible module of K(1) for each kind K; a
# sum of two copies acts on one of them.
_REAL_DIM_FACTOR = {"R": 1, "R2": 1, "C": 2, "H": 4, "H2": 4}


def minimal_dimension(cell):
    """Real dimension of the minimal admissible module of a printed cell."""
    doubled = cell.endswith("*")
    if doubled:
        cell = cell[:-1]
    if "(" in cell:
        kind, rest = cell.split("(")
        size = int(rest.rstrip(")"))
    else:
        kind, size = cell, 1
    return _REAL_DIM_FACTOR[kind] * size * (2 if doubled else 1)


def printed_cells():
    """{(r, s): printed label} for all 81 cells."""
    return {(r, s): row[r] for s, row in GRID_ROWS.items() for r in range(9)}

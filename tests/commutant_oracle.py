"""The commutant as an explicit system of equations, kept as a test oracle.

The package finds the commutant as the joint kernel of the maps
X -> XA - AX; here every entry (XA - AX)[r][c] = 0 of every restricted
operator is written out as one equation in the k^2 unknowns X[i][j] and
the dimension is k^2 minus the rank of the whole system.
"""

from fractions import Fraction

from superbraid.linalg import RowReducer, restrict_op


def commutant_dimension_by_equations(ops, within):
    k = within.dim
    if k == 0:
        return 0
    red = RowReducer()
    rank = 0
    for op in ops:
        mat = restrict_op(op, within)
        mat_rows: dict = {}
        for l, col in mat.cols.items():
            for r, v in col.items():
                mat_rows.setdefault(r, {})[l] = v
        # unknowns X[i][j] indexed by i * k + j; equations (X A - A X)[r][c] = 0
        for r in range(k):
            for c in range(k):
                row: dict = {}
                for l, v in mat.cols.get(c, {}).items():
                    row[r * k + l] = row.get(r * k + l, Fraction(0)) + v
                for l, v in mat_rows.get(r, {}).items():
                    row[l * k + c] = row.get(l * k + c, Fraction(0)) - v
                row = {key: v for key, v in row.items() if v}
                if row and red.add(row):
                    rank += 1
    return k * k - rank

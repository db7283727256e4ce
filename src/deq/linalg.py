"""Dense exact linear algebra over the fields in deq.fields.

Everything is deterministic: elimination scans columns in a fixed order
(leftmost first unless a custom order is given) and picks the topmost
nonzero row as pivot, so bases and echelon forms are reproducible.
"""

from __future__ import annotations

import itertools

from .fields import Field, UsageError


class Matrix:
    """Dense matrix; entries are raw field values, checked at construction
    unless the field's own operations produced them (Matrix._computed)."""

    def __init__(self, field: Field, rows, coerce: bool = True):
        if not rows or not rows[0]:
            raise UsageError("matrix dimensions must be positive")
        ncols = len(rows[0])
        fixed = []
        for row in rows:
            if len(row) != ncols:
                raise UsageError("ragged matrix rows")
            if coerce:
                fixed.append([field.coerce(v) for v in row])
            else:
                fixed.append([field.validate(v) for v in row])
        self.field = field
        self.rows = fixed
        self.nrows = len(fixed)
        self.ncols = ncols

    @classmethod
    def _computed(cls, field, rows):
        """A matrix of values that the field's own operations produced, taken
        as they are: they were checked when they entered, so no entry is
        checked again. rows must be nonempty and rectangular."""
        m = cls.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), len(rows[0])
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls._computed(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._computed(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def col(self, j):
        return [row[j] for row in self.rows]

    def add(self, other):
        self._match(other, same_shape=True)
        k = self.field
        return Matrix._computed(k, [[k.add(a, b) for a, b in zip(ra, rb)]
                                    for ra, rb in zip(self.rows, other.rows)])

    def scale(self, s):
        k = self.field
        s = k.coerce(s)
        return Matrix._computed(k, [[k.mul(s, a) for a in row] for row in self.rows])

    def mul(self, other):
        rows, denominator = self._integral_mul(other)
        return Matrix._computed(self.field, self.field.from_integral(rows, denominator))

    def _integral_mul(self, other):
        """(rows, d): the product is rows / d, rows in the field's integral
        form (fields.Field), not yet brought back to field values."""
        self._match(other)
        if self.ncols != other.nrows:
            raise UsageError("inner dimensions differ: %d vs %d" % (self.ncols, other.nrows))
        # The sums of products run on the field's integral form with plain +
        # and *: ints over a common denominator for Q, unreduced residues for
        # F_p. Skipping zero terms is exact: every field keeps values
        # canonical, so the sum of the nonzero products equals the full dot
        # product. Integral values are falsy exactly when zero, a cheaper
        # test than ==.
        arows, brows, zero, denominator = self.field.integral(self.rows, other.rows)
        bnonzero = [[(j, b) for j, b in enumerate(row) if b] for row in brows]
        out = []
        for row in arows:
            acc = [zero] * other.ncols
            for a, bk in zip(row, bnonzero):
                if a:
                    for j, b in bk:
                        acc[j] += a * b
            out.append(acc)
        return out, denominator

    def __matmul__(self, other):
        return self.mul(other)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise UsageError("vector length %d does not match %d columns" % (len(vec), self.ncols))
        k = self.field
        # only the products of nonzero entries are formed
        nonzero = [(j, v) for j, v in enumerate(vec) if not k.is_zero(v)]
        return [k.sum(k.mul(row[j], v) for j, v in nonzero if not k.is_zero(row[j]))
                for row in self.rows]

    def transpose(self):
        return Matrix._computed(self.field, [self.col(j) for j in range(self.ncols)])

    def kron(self, other):
        self._match(other)
        k = self.field
        zeros = [k.zero] * other.ncols
        out = []
        for ra in self.rows:
            for rb in other.rows:
                row = []
                for a in ra:
                    row.extend(zeros if k.is_zero(a) else [k.mul(a, b) for b in rb])
                out.append(row)
        return Matrix._computed(k, out)

    def is_zero(self):
        k = self.field
        return all(k.is_zero(v) for row in self.rows for v in row)

    def _match(self, other, same_shape=False):
        if self.field != other.field:
            raise UsageError("mixed fields: %r vs %r" % (self.field, other.field))
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise UsageError("shape mismatch")

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self):
        return "Matrix(%r, %dx%d)" % (self.field, self.nrows, self.ncols)


# The block kernels form at most this many entries of a product at once, or
# one X[a]'s blocks if those alone are more (the module axiom's first band
# also carries the unit row): a larger family is formed in bands of
# consecutive X[a], each pair's product still formed once.
_BAND_ENTRIES = 1 << 14


def _bands(count, entries_each):
    """range(count) cut into consecutive ranges of at most _BAND_ENTRIES
    entries at entries_each per index, one index at least."""
    step = max(1, _BAND_ENTRIES // entries_each)
    return [range(a, min(a + step, count)) for a in range(0, count, step)]


def _stacked(mats):
    """The matrices one above the other."""
    return Matrix._computed(mats[0].field, [row for M in mats for row in M.rows])


def _side_by_side(mats):
    """The matrices side by side; they have one number of rows."""
    return Matrix._computed(mats[0].field, [[v for M in mats for v in M.rows[i]]
                                            for i in range(mats[0].nrows)])


def _differences(field, xs, dx, ys, dy):
    """For tables xs / dx and ys / dy in the integral form of the field, the
    field values of dx dy (xs / dx - ys / dy): nonzero exactly where the two
    tables differ."""
    return field.from_integral([[x * dy - y * dx for x, y in zip(rx, ry)]
                                for rx, ry in zip(xs, ys)], 1)


def module_defects(act, unit, coeffs):
    """The rows, in order, that mark where d n x n matrices act[c] of one
    field fail to be a module: entry i n + j of the first (unit) row is
    nonzero exactly where sum_c unit[c] act[c] differs from the identity at
    (i, j), and entry i n + j of the row after it numbered a d + b exactly
    where act[a] act[b] and sum_c coeffs[a d + b][c] act[c] differ at (i, j).

    The rows come in bands of consecutive a (`_bands`), so a caller that
    stops at a nonzero row forms no later band. Two products form each
    band's sides: its act[a] stacked times every act[b] side by side, and
    its coefficient rows (the unit row first) times the flattened act[c]."""
    k, n, d = act[0].field, act[0].nrows, len(act)
    for M in act:
        act[0]._match(M, same_shape=True)
    band = _side_by_side(act)
    flat = Matrix._computed(k, [[v for row in A.rows for v in row] for A in act])
    for chunk in _bands(d, d * n * n):
        lhs, dl = _stacked(act[chunk.start:chunk.stop])._integral_mul(band)
        left = [[v for row in lhs[i * n:(i + 1) * n] for v in row[b * n:(b + 1) * n]]
                for i in range(len(chunk)) for b in range(d)]
        right = coeffs[chunk.start * d:chunk.stop * d]
        if chunk.start == 0:
            left.insert(0, [dl if t % (n + 1) == 0 else 0 for t in range(n * n)])  # dl I / dl
            right = [unit] + right
        rhs, dr = Matrix._computed(k, right)._integral_mul(flat)
        yield from _differences(k, left, dl, rhs, dr)


def commutator_columns(X, Y):
    """table[a][b], the columns j where X[a] Y[b] and Y[b] X[a] differ, for
    nonempty lists of n x n matrices of one field: [X[a], Y[b]] = 0 exactly
    when the list is empty. For each band of consecutive a (`_bands`), two
    block products form every X[a] Y[b] and every Y[b] X[a]: the band's X[a]
    stacked times the Y[b] side by side, and the other way round."""
    for M in itertools.chain(X, Y):
        X[0]._match(M)
    k, n, ny = X[0].field, X[0].nrows, len(Y)
    y_stacked, y_band = _stacked(Y), _side_by_side(Y)
    table = []
    for chunk in _bands(len(X), ny * n * n):
        xs = X[chunk.start:chunk.stop]
        xy, dxy = _stacked(xs)._integral_mul(y_band)
        yx, dyx = y_stacked._integral_mul(_side_by_side(xs))
        # row (a, i) of yx laid out as xy: row i of Y[b] X[a] for each b
        swapped = [[v for b in range(ny) for v in yx[b * n + i][a * n:(a + 1) * n]]
                   for a in range(len(xs)) for i in range(n)]
        diff = _differences(k, xy, dxy, swapped, dyx)
        for a in range(len(xs)):
            bad = [any(col) for col in zip(*diff[a * n:(a + 1) * n])]
            table.append([[j for j in range(n) if bad[b * n + j]] for b in range(ny)])
    return table


def rref(rows, field, col_order=None):
    """Reduced row echelon form. Returns (rows, pivot_cols), rows in pivot order.

    col_order customizes which columns are eliminated first; pivot_cols is
    reported in elimination order.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise UsageError("ragged rows")
    order = list(range(ncols)) if col_order is None else list(col_order)
    rank = 0
    pivots = []
    for c in order:
        pivot_row = None
        for i in range(rank, len(work)):
            if not field.is_zero(work[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        row = work[rank]
        inv = field.inv(row[c])
        # scaling and elimination touch only the pivot row's nonzero columns
        support = [j for j, v in enumerate(row) if j != c and not field.is_zero(v)]
        for j in support:
            row[j] = field.mul(inv, row[j])
        row[c] = field.one
        for i, other in enumerate(work):
            if i != rank and not field.is_zero(other[c]):
                f = other[c]
                for j in support:
                    other[j] = field.sub(other[j], field.mul(f, row[j]))
                other[c] = field.zero
        pivots.append(c)
        rank += 1
    return work[:rank], pivots


def matrix_inverse(A: Matrix):
    """A^{-1}, or None when A is singular."""
    if A.nrows != A.ncols:
        raise UsageError("inverse of a non-square matrix")
    k = A.field
    n = A.nrows
    ident = Matrix.identity(k, n)
    aug = [row + irow for row, irow in zip(A.rows, ident.rows)]
    # pivots only in A's columns: a singular A ends short of n of them
    rows, pivots = rref(aug, k, col_order=range(n))
    if len(pivots) != n:
        return None
    return Matrix._computed(k, [row[n:] for row in rows])

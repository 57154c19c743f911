"""Exact linear algebra over the integers.

Everything downstream (homology of handlebodies, bilinear form algebra,
cobordism bookkeeping) reduces to the primitives implemented here:
Smith normal form with recorded unimodular transforms, saturated integer
kernels, cokernels presented as finitely generated abelian groups,
integer solutions of linear systems, and exact determinants and
signatures via fraction-free (Bareiss) elimination.

One Smith elimination serves every function that reads a transform:
it records its row and column operations, and each caller replays them
over just the vectors it reads (all of U and V, V's kernel columns, or
one U b and one V y).  The pivots depend on the matrix alone, so all
see the same diagonal, U and V.
cokernel reads no transform and builds none: a sparse pass first takes
every +-1 pivot in Markowitz order, and the Smith elimination reduces
only what that pass leaves.

All entries are plain Python integers, never fractions, and nothing here
ever truncates.  The Smith elimination improves a pivot by reducing its
whole column, then its whole row, to least remainders in each round,
which keeps U and V of dense 24 x 24 inputs with entries |x| <= 9 near
600 bits; no bound is proved.
Matrices are immutable values, so every function is safe under
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index, mul

from .errors import DimensionError


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples.

    The column count is part of the value, so 0 x n matrices of
    different widths are distinct.  Entries must be integers (anything
    operator.index accepts); floats and strings raise TypeError instead
    of being truncated or parsed.
    """

    entries: tuple
    cols: int | None = None

    def __post_init__(self):
        rows = tuple(tuple(map(index, row)) for row in self.entries)
        cols = None if self.cols is None else index(self.cols)
        if cols is not None and cols < 0:
            raise DimensionError(f"negative column count {cols}")
        width = len(rows[0]) if rows else cols or 0
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows")
        if cols is not None and cols != width:
            raise DimensionError(f"rows of length {width} but cols={cols}")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "cols", width)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows, cols=None) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def _unchecked(cls, rows, cols) -> "IntMatrix":
        """A matrix of rows that are already int tuples of length cols,
        built without __post_init__'s checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        object.__setattr__(m, "cols", cols)
        return m

    @classmethod
    def from_diagonal(cls, values) -> "IntMatrix":
        """The square matrix with the given diagonal and zeros elsewhere."""
        values = tuple(map(index, values))
        n = len(values)
        return cls._unchecked(tuple(tuple(x if i == j else 0 for j in range(n))
                                    for i, x in enumerate(values)), n)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if index(n) < 0:
            raise DimensionError(f"negative size {n}")
        return cls.from_diagonal((1,) * n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        if index(r) < 0:
            raise DimensionError(f"negative row count {r}")
        c = index(c)
        if c < 0:
            raise DimensionError(f"negative column count {c}")
        return cls._unchecked(((0,) * c,) * r, c)

    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        cols = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._unchecked(cols, self.rows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        r1, c1 = self.shape()
        r2, c2 = other.shape()
        if c1 != r2:
            raise DimensionError(f"cannot multiply {r1}x{c1} by {r2}x{c2}")
        cols = other.transpose().entries
        out = tuple([tuple([sum(map(mul, row, col)) for col in cols])
                     for row in self.entries])
        return IntMatrix._unchecked(out, c2)

    def apply(self, vec):
        """Matrix-vector product with an integer vector, as a tuple."""
        r, c = self.shape()
        if len(vec) != c:
            raise DimensionError(f"vector of length {len(vec)} against {r}x{c}")
        vec = tuple(map(index, vec))
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def is_square(self) -> bool:
        r, c = self.shape()
        return r == c

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        n = self.rows
        return all(
            self.entries[i][j] == self.entries[j][i] for i in range(n) for j in range(i)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def equals(self, other: "IntMatrix") -> bool:
        return self.shape() == other.shape() and self.entries == other.entries

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        for idx, n, what in ((row_idx, self.rows, "row"), (col_idx, self.cols, "column")):
            if bad := [i for i in idx if not 0 <= i < n]:
                raise DimensionError(f"{what} index {bad[0]} out of range for size {n}")
        return IntMatrix._unchecked(
            tuple(tuple([self.entries[i][j] for j in col_idx]) for i in row_idx),
            len(col_idx))


def block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Assemble [[a, 0], [0, b]]."""
    return IntMatrix._unchecked(
        tuple(row + (0,) * b.cols for row in a.entries)
        + tuple((0,) * a.cols + row for row in b.entries), a.cols + b.cols)


def with_relations(m: IntMatrix, orders) -> IntMatrix:
    """[m | relations]: m's columns, then t * e_i for each row i of order t != 0.

    orders gives one generator order per row of m (0 meaning infinite).
    The column span of the result is the span of m's columns plus the
    torsion relations, so its cokernel is the module modulo that span.
    """
    if len(orders) != m.rows:
        raise DimensionError(f"{len(orders)} orders for {m.rows} rows")
    tor = {i: index(t) for i, t in enumerate(orders) if t != 0}
    rows = tuple(row + tuple([t if i == k else 0 for k, t in tor.items()])
                 for i, row in enumerate(m.entries))
    return IntMatrix._unchecked(rows, m.cols + len(tor))


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D the Smith diagonal of M."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self):
        r, c = self.d.shape()
        return tuple(self.d.entries[i][i] for i in range(min(r, c)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    def solve(self, b):
        """One integer x with m x = b for the decomposed m, or None."""
        y = _diagonal_solve(self.diagonal(), self.u.apply(b), self.v.cols)
        return None if y is None else self.v.apply(y)


@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form of a finitely generated abelian group.

    torsion_divisors is the invariant-factor chain: each divisor is at
    least 2 and divides the next one.
    """

    free_rank: int
    torsion_divisors: tuple

    def __post_init__(self):
        object.__setattr__(self, "free_rank", index(self.free_rank))
        object.__setattr__(self, "torsion_divisors",
                           tuple(map(index, self.torsion_divisors)))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        ds = self.torsion_divisors
        for d in ds:
            if d < 2:
                raise ValueError(f"torsion divisor {d} < 2")
        for a, b in zip(ds, ds[1:]):
            if b % a != 0:
                raise ValueError(f"divisor chain broken: {a} does not divide {b}")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_divisors

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion_divisors)

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def from_orders(cls, orders) -> "FgAbelianGroup":
        """Canonicalize a list of generator orders (0 meaning infinite)."""
        free = sum(1 for t in orders if t == 0)
        tors = [t for t in orders if t != 0]
        if any(t < 2 for t in tors):
            raise ValueError("generator orders must be 0 or >= 2")
        if not tors:
            return cls(free, ())
        inner = cokernel(with_relations(IntMatrix.zeros(len(tors), 0), tors))
        return cls(free + inner.free_rank, inner.torsion_divisors)

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        return FgAbelianGroup.from_orders(
            [0] * (self.free_rank + other.free_rank)
            + list(self.torsion_divisors)
            + list(other.torsion_divisors)
        )

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion_divisors)
        return " + ".join(parts)


def _swap_rows(a, rops, i, j):
    a[i], a[j] = a[j], a[i]
    rops.append((i, j, None))


def _swap_cols(a, ops, t, i, j):
    for row in a[t:]:
        row[i], row[j] = row[j], row[i]
    ops.append((i, j, None))


def _row_sub(a, rops, t, i, j, q):
    # row_i -= q * row_j, on columns >= t
    ai, aj = a[i], a[j]
    for k in range(t, len(ai)):
        ai[k] -= q * aj[k]
    rops.append((i, j, q))


def _eliminate(a, rops, ops):
    """Reduce a, a list of row lists, in place to its Smith form.

    Row operations are appended to rops and column operations to ops, in
    order: (i, j, q) for row_i -= q * row_j (col_i -= q * col_j) and
    (i, j, None) for a swap; a sign fix is (i, i, 2).  U and V are their
    products, and each caller replays them over just the vectors it
    reads.  Pivots depend on a alone.  When pivot t is placed, rows and
    columns before t are zero off the diagonal, so every operation
    touches only the trailing block from t.

    The pivot is the first smallest entry of the trailing block, and it
    improves in rounds: every nonzero entry below it takes the
    nearest-integer quotient (the lower on a tie), and if any remainder
    is left, the first row of least remainder is swapped in, at most half
    the old pivot; then the same along the pivot row with column
    operations.  A +-1 pivot leaves no remainder, so an elimination whose
    pivots are all units records the classical rule's operations.
    Reducing the whole column each round, rather than swapping at the
    first remainder, is what keeps entries small (Havas, Majewski and
    Matthews, Experiment. Math. 7, 1998); they stay exact, with no proved
    bound.  Returns the diagonal: non-negative, each entry dividing the
    next.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    t = 0
    while t < min(rows, cols):
        # locate the first smallest nonzero entry of the trailing
        # submatrix; nothing beats a unit, so the scan ends at its row
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
            if best == 1:
                break
        if piv is None:
            break
        _swap_rows(a, rops, t, piv[0])
        _swap_cols(a, ops, t, t, piv[1])

        while True:
            # one round down the pivot column: every entry below the pivot
            # drops to its least remainder, and the first row of least
            # nonzero remainder is swapped in as the new pivot
            p = a[t][t]
            size = abs(p)
            best = None
            for i in range(t + 1, rows):
                x = a[i][t]
                if x == 0:
                    continue
                q, r = divmod(x, p)
                if 2 * abs(r) > size:
                    q += 1
                    r -= p
                if q:
                    _row_sub(a, rops, t, i, t, q)
                if r and (best is None or abs(r) < abs(a[best][t])):
                    best = i
            if best is not None:
                _swap_rows(a, rops, t, best)
                continue
            # the same round along the pivot row; column t is zero below
            # the pivot, so col_j -= q * col_t changes a[t][j] alone
            at = a[t]
            for j in range(t + 1, cols):
                x = at[j]
                if x == 0:
                    continue
                q, r = divmod(x, p)
                if 2 * abs(r) > size:
                    q += 1
                    r -= p
                if q:
                    at[j] = r
                    ops.append((j, t, q))
                if r and (best is None or abs(r) < abs(at[best])):
                    best = j
            if best is not None:
                _swap_cols(a, ops, t, t, best)
                continue
            # force the divisibility chain: fold any offending row into the
            # pivot row and keep reducing; a +-1 pivot divides everything
            if size == 1:
                break
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_sub(a, rops, t, t, offender, -1)
        t += 1

    # normalize diagonal signs into the row transform
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            rops.append((i, i, 2))
    return tuple(a[i][i] for i in range(min(rows, cols)))


def _replay(ops, y):
    """V y, in place, for V the product of the recorded column operations.

    V = E_1 ... E_k, so V y = E_1 (... (E_k y)): the operations run
    backwards, and col_i -= q * col_j acts on y as y_j -= q * y_i.  Row
    operations have the transposed matrices, so over rops it gives U^T y.
    """
    for i, j, q in reversed(ops):
        if q is None:
            y[i], y[j] = y[j], y[i]
        elif y[i]:
            y[j] -= q * y[i]
    return y


def _apply(rops, y):
    """U y, in place, for U the product of the recorded row operations."""
    for i, j, q in rops:
        if q is None:
            y[i], y[j] = y[j], y[i]
        elif y[j]:
            y[i] -= q * y[j]
    return y


def _replayed(ops, n, start=0):
    """The matrix of rows _replay(ops, e_k), k = start, ..., n - 1: rows of
    U over the row operations, rows of V^T over the column operations."""
    return IntMatrix._unchecked(
        tuple(tuple(_replay(ops, [0] * k + [1] + [0] * (n - k - 1)))
              for k in range(start, n)), n)


def _diagonal_solve(diag, ub, n):
    """The y in Z^n with D y = ub, or None: D is the Smith matrix with the
    given diagonal and ub = U b, so V y solves m x = b when U m V = D."""
    y = [0] * n
    for i, c in enumerate(ub):
        d = diag[i] if i < len(diag) else 0
        if (c % d if d else c) != 0:
            return None
        if c:
            y[i] = c // d
    return y


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize m by unimodular row and column operations.

    Returns U, D, V with U*m*V = D, |det U| = |det V| = 1, the diagonal
    of D non-negative and each entry dividing the next.  The rows of U
    and of V^T are the recorded operations replayed over each e_k.
    """
    a = [list(r) for r in m.entries]
    rops = []
    ops = []
    _eliminate(a, rops, ops)
    return SmithDecomposition(u=_replayed(rops, m.rows),
                              d=IntMatrix._unchecked(tuple(map(tuple, a)), m.cols),
                              v=_replayed(ops, m.cols).transpose())


def _unit_pivots(m):
    """Eliminate the unit entries of m sparsely.

    Returns (pivots, rest): the number of +-1 pivots taken and what
    they leave, as row lists with no zero row or column.  The rank of m
    is pivots plus the rank of rest, and both cokernels have the same
    torsion.  m is kept as the nonzeros of each row and the rows of
    each column.  While a +-1 entry remains, the one of lowest Markowitz
    cost (r - 1)(c - 1), for r and c the nonzeros in its row and column,
    clears its column by row operations; its row then clears by column
    operations that touch no other row, so the pivot's row and column
    are simply dropped.
    """
    rows = {}
    cols = {}
    for i, row in enumerate(m.entries):
        nz = {j: x for j, x in enumerate(row) if x}
        if nz:
            rows[i] = nz
            for j in nz:
                cols.setdefault(j, set()).add(i)
    pivots = 0
    while True:
        best = None
        for i, row in rows.items():
            r = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = r * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, j = best
        prow = rows.pop(i)
        s = prow.pop(j)
        for col in prow:
            cols[col].discard(i)
        for k in cols.pop(j):
            if k == i:
                continue
            row = rows[k]
            f = row.pop(j) * s
            for col, x in prow.items():
                y = row.get(col, 0) - f * x
                if y:
                    row[col] = y
                    cols[col].add(k)
                else:
                    del row[col]
                    cols[col].discard(k)
            if not row:
                del rows[k]
        pivots += 1
    live = [j for j, rs in cols.items() if rs]
    return pivots, [[row.get(j, 0) for j in live] for row in rows.values()]


def _group(rows, diag, pivots=0):
    """The cokernel of a matrix with the given row count, unit pivots and
    Smith diagonal of what the pivots left."""
    rank = pivots + sum(1 for d in diag if d != 0)
    return FgAbelianGroup(free_rank=rows - rank,
                          torsion_divisors=tuple(d for d in diag if d > 1))


def cokernel(m: IntMatrix) -> FgAbelianGroup:
    """The quotient of the row space Z^rows by the column images of m.

    A sparse pass takes every +-1 pivot first (_unit_pivots) and the
    Smith elimination reduces only what it leaves; no transform is
    built.  The group is canonical, so the pivot order changes only the
    time taken.
    """
    pivots, rest = _unit_pivots(m)
    return _group(m.rows, _eliminate(rest, [], []), pivots)


def _column_smith(m: IntMatrix):
    """(diagonal, column operations, cokernel(m)) from one Smith
    elimination of m that keeps no row operations."""
    ops = []
    diag = _eliminate([list(r) for r in m.entries], [], ops)
    return diag, ops, _group(m.rows, diag)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A saturated basis of the integer kernel lattice {v : m v = 0}.

    The basis consists of the trailing columns of the Smith V transform,
    so it extends to a basis of the full lattice (primitivity comes for
    free from unimodularity of V), and only they are built, by replaying
    the column operations over e_rank ... e_(cols-1).  Returned as a
    cols x (cols - rank) matrix whose columns are the basis vectors.
    """
    diag, ops, _ = _column_smith(m)
    rank = sum(1 for d in diag if d != 0)
    return _replayed(ops, m.cols, rank).transpose()


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n, c = m.shape()
    if n != c:
        raise DimensionError(f"determinant of non-square {n}x{c} matrix")
    a = [list(row) for row in m.entries]
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return m.is_square() and abs(determinant(m)) == 1


def signature(q: IntMatrix):
    """Signature data of a symmetric integer matrix.

    Returns (positives, negatives, zeros) of a rational congruent
    diagonalization; the signature is positives - negatives.  Integer
    symmetric Bareiss elimination: trailing entries are bordered minors,
    so the rational pivot p / prev has the sign of p * prev.  The two
    congruence moves (swap up a nonzero diagonal entry; else add row
    and column j to row and column 0) act linearly on those minors, so
    every division stays exact.  A zero trailing row counts as a zero.
    """
    if not q.is_symmetric():
        raise DimensionError("signature needs a symmetric matrix")
    a = [list(row) for row in q.entries]
    pos = neg = zero = 0
    prev = 1
    # a is the trailing block; its row 0 takes the next pivot
    while a:
        if a[0][0] == 0:
            j = next((j for j in range(1, len(a)) if a[j][j] != 0), None)
            if j is not None:
                a[0], a[j] = a[j], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((j for j in range(1, len(a)) if a[0][j] != 0), None)
                if j is None:
                    zero += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
        p = a[0][0]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        top = a[0]
        a = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             for row in a[1:]]
        prev = p
    return (pos, neg, zero)


def solve_integer(a: IntMatrix, b):
    """One integer solution x of a x = b, or None when none exists.

    The recorded row operations, applied forwards to b, give U b, and the
    column operations x = V y for D y = U b; neither U nor V is built.
    """
    if len(b) != a.rows:
        raise DimensionError("right-hand side length mismatch")
    b = list(map(index, b))
    rops = []
    ops = []
    diag = _eliminate([list(r) for r in a.entries], rops, ops)
    y = _diagonal_solve(diag, _apply(rops, b), a.cols)
    return None if y is None else tuple(_replay(ops, y))

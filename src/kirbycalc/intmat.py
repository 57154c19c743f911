"""Exact linear algebra over the integers.

Everything downstream (homology of handlebodies, bilinear form algebra,
cobordism bookkeeping) reduces to the primitives implemented here:
Smith normal form with recorded unimodular transforms, saturated integer
kernels, cokernels presented as finitely generated abelian groups,
integer solutions of linear systems, and exact determinants and
signatures via fraction-free (Bareiss) elimination.

One Smith elimination serves every function that reads a transform,
and each pays only for the transforms it reads: smith_normal_form
carries U and V, kernel_basis only V, and solve_integer V and the
right-hand side (U is never built).  The pivots depend on the matrix
alone, so all three see the same diagonal and the same V.  cokernel
reads no transform and builds none: a sparse pass first takes every
+-1 pivot in Markowitz order, and the Smith elimination reduces only
what that pass leaves.  The same pass yields the sign its pivots give
the determinant, so cokernel_and_determinant runs Bareiss only on that
remainder; determinant alone stays a dense Bareiss elimination.

All entries are plain Python integers, never fractions; they may grow
without bound during elimination and nothing here ever truncates.
Matrices are immutable values, so every function is safe under
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

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
    def from_diagonal(cls, values) -> "IntMatrix":
        """The square matrix with the given diagonal and zeros elsewhere."""
        values = tuple(values)
        n = len(values)
        return cls(tuple(tuple(x if i == j else 0 for j in range(n))
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
        return cls(tuple(tuple(0 for _ in range(c)) for _ in range(r)), c)

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
        r, c = self.shape()
        return IntMatrix.from_rows(
            [[self.entries[i][j] for i in range(r)] for j in range(c)], cols=r
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        r1, c1 = self.shape()
        r2, c2 = other.shape()
        if c1 != r2:
            raise DimensionError(f"cannot multiply {r1}x{c1} by {r2}x{c2}")
        out = []
        for i in range(r1):
            row = self.entries[i]
            out.append(
                [sum(row[k] * other.entries[k][j] for k in range(c1)) for j in range(c2)]
            )
        return IntMatrix.from_rows(out, cols=c2)

    def apply(self, vec):
        """Matrix-vector product, returned as a tuple."""
        r, c = self.shape()
        if len(vec) != c:
            raise DimensionError(f"vector of length {len(vec)} against {r}x{c}")
        return tuple(sum(self.entries[i][k] * vec[k] for k in range(c)) for i in range(r))

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
        return IntMatrix.from_rows(
            [[self.entries[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx)
        )


def block_diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Assemble [[a, 0], [0, b]]."""
    return IntMatrix.from_rows(
        [row + (0,) * b.cols for row in a.entries]
        + [(0,) * a.cols + row for row in b.entries], cols=a.cols + b.cols)


def with_relations(m: IntMatrix, orders) -> IntMatrix:
    """[m | relations]: m's columns, then t * e_i for each row i of order t != 0.

    orders gives one generator order per row of m (0 meaning infinite).
    The column span of the result is the span of m's columns plus the
    torsion relations, so its cokernel is the module modulo that span.
    """
    if len(orders) != m.rows:
        raise DimensionError(f"{len(orders)} orders for {m.rows} rows")
    tor = [i for i, t in enumerate(orders) if t != 0]
    rows = [list(row) + [orders[i] if i == k else 0 for k in tor]
            for i, row in enumerate(m.entries)]
    return IntMatrix.from_rows(rows, cols=m.cols + len(tor))


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
        return _back_substitute(self.diagonal(),
                                self.u.apply(tuple(map(index, b))),
                                self.v.transpose().entries)


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
        n = 1
        for d in self.torsion_divisors:
            n *= d
        return n

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


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    if u:
        u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    if v:
        v[i], v[j] = v[j], v[i]


def _row_sub(a, u, i, j, q):
    # row_i -= q * row_j
    ai, aj = a[i], a[j]
    for k in range(len(ai)):
        ai[k] -= q * aj[k]
    if u:
        ui, uj = u[i], u[j]
        for k in range(len(ui)):
            ui[k] -= q * uj[k]


def _col_sub(a, v, i, j, q):
    # col_i -= q * col_j
    for row in a:
        row[i] -= q * row[j]
    if v:
        vi, vj = v[i], v[j]
        for k in range(len(vi)):
            vi[k] -= q * vj[k]


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _eliminate(a, u, v):
    """Reduce a, a list of row lists, in place to its Smith form.

    Every row operation on a is applied to u, which holds one list per
    row of a, and every column operation to v, which holds one list per
    column of a (the columns of the column transform).  Either may be
    empty when the caller does not read that transform.  Pivots are
    chosen from a alone, so a ends the same whatever is tracked.  The
    classical pivot-improvement algorithm: entry growth is unbounded but
    exact.  Returns the diagonal: non-negative, each entry dividing the
    next.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    t = 0
    while t < min(rows, cols):
        # locate the smallest nonzero entry of the trailing submatrix
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        _swap_rows(a, u, t, piv[0])
        _swap_cols(a, v, t, piv[1])

        while True:
            restart = False
            # clear the pivot column; a nonzero remainder becomes the new,
            # strictly smaller pivot
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                q, r = divmod(a[i][t], a[t][t])
                _row_sub(a, u, i, t, q)
                if r != 0:
                    _swap_rows(a, u, t, i)
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                q, r = divmod(a[t][j], a[t][t])
                _col_sub(a, v, j, t, q)
                if r != 0:
                    _swap_cols(a, v, t, j)
                    restart = True
                    break
            if restart:
                continue
            # force the divisibility chain: fold any offending row into the
            # pivot row and keep reducing
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_sub(a, u, t, offender, -1)
        t += 1

    # normalize diagonal signs into the row transform
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            if u:
                u[i] = [-x for x in u[i]]
    return tuple(a[i][i] for i in range(min(rows, cols)))


def _back_substitute(diag, ub, v):
    """V y for the integer y with D y = ub, or None when there is none.

    D is the Smith matrix with the given diagonal, ub is U b and v
    holds the columns of V, so the result solves m x = b when U m V = D.
    """
    x = [0] * len(v)
    for i, c in enumerate(ub):
        d = diag[i] if i < len(diag) else 0
        if (c % d if d else c) != 0:
            return None
        if c:
            x = [xk + c // d * vk for xk, vk in zip(x, v[i])]
    return tuple(x)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize m by unimodular row and column operations.

    Returns U, D, V with U*m*V = D, |det U| = |det V| = 1, the diagonal
    of D non-negative and each entry dividing the next.
    """
    rows, cols = m.shape()
    a = [list(r) for r in m.entries]
    u = _identity_rows(rows)
    v = _identity_rows(cols)
    _eliminate(a, u, v)
    return SmithDecomposition(
        u=IntMatrix.from_rows(u, cols=rows),
        d=IntMatrix.from_rows(a, cols=cols),
        v=IntMatrix.from_rows(zip(*v), cols=cols),
    )


def _unit_pivots(m):
    """Eliminate the unit entries of m sparsely.

    Returns (pivots, rest, sign): the number of +-1 pivots taken, what
    they leave, as row lists with no zero row or column, and the sign
    with det m = sign * det rest.  The rank of m is pivots plus the rank
    of rest, and both cokernels have the same torsion.  m is kept as the
    nonzeros of each row and the rows of each column.  While a +-1 entry
    remains, the one of lowest Markowitz cost (r - 1)(c - 1), for r and
    c the nonzeros in its row and column, clears its column by row
    operations; its row then clears by column operations that touch no
    other row, so the pivot's row and column are simply dropped.

    None of these operations changes the determinant, so det m is the
    product of the pivots times det rest times the sign of the pairing
    of rows with columns: each pivot row with its pivot column, and the
    rows of rest, in order, with the columns of rest.  sign is 0 unless
    m is square and rest is (n - pivots) x (n - pivots); otherwise m
    has a zero row or column left, or is not square.
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
    sign = 1
    pairing = {}
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
        sign *= s
        pairing[i] = j
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
    rest = [[row.get(j, 0) for j in live] for row in rows.values()]
    free = m.rows - pivots
    if m.rows != m.cols or len(rest) != free or len(live) != free:
        return pivots, rest, 0
    pairing.update(zip(rows, live))
    seen = set()
    for start, j in pairing.items():
        if start in seen:
            continue
        # a cycle of length L has sign (-1)^(L - 1)
        while j != start:
            sign = -sign
            seen.add(j)
            j = pairing[j]
    return pivots, rest, sign


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
    pivots, rest, _ = _unit_pivots(m)
    return _group(m.rows, _eliminate(rest, [], []), pivots)


def cokernel_and_determinant(m: IntMatrix):
    """(cokernel(m), determinant(m)) from one sparse pass.

    The pass that takes cokernel's +-1 pivots also gives the sign they
    contribute (_unit_pivots), so Bareiss runs only on the remainder.
    A non-square m raises DimensionError, as in determinant.
    """
    _require_square(m)
    pivots, rest, sign = _unit_pivots(m)
    det = sign * _bareiss([row[:] for row in rest]) if sign else 0
    return _group(m.rows, _eliminate(rest, [], []), pivots), det


def _kernel_and_cokernel(m: IntMatrix):
    """(kernel_basis(m), cokernel(m)) from one elimination that keeps V."""
    n = m.cols
    v = _identity_rows(n)
    diag = _eliminate([list(r) for r in m.entries], [], v)
    rank = sum(1 for d in diag if d != 0)
    basis = IntMatrix.from_rows([[col[i] for col in v[rank:]] for i in range(n)],
                                cols=n - rank)
    return basis, _group(m.rows, diag)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A saturated basis of the integer kernel lattice {v : m v = 0}.

    The basis consists of the trailing columns of the Smith V transform,
    so it extends to a basis of the full lattice (primitivity comes for
    free from unimodularity of V).  Returned as a cols x (cols - rank)
    matrix whose columns are the basis vectors.
    """
    return _kernel_and_cokernel(m)[0]


def _require_square(m):
    r, c = m.shape()
    if r != c:
        raise DimensionError(f"determinant of non-square {r}x{c} matrix")


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    _require_square(m)
    return _bareiss([list(row) for row in m.entries])


def _bareiss(a):
    """The determinant of a, a square list of row lists, which the
    fraction-free elimination overwrites."""
    n = len(a)
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

    The elimination carries b along with V, so U is never built.
    """
    rows, cols = a.shape()
    if len(b) != rows:
        raise DimensionError("right-hand side length mismatch")
    ub = [[index(x)] for x in b]
    v = _identity_rows(cols)
    diag = _eliminate([list(r) for r in a.entries], ub, v)
    return _back_substitute(diag, [x for x, in ub], v)

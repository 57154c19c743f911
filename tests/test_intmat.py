import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from kirbycalc.errors import DimensionError
from kirbycalc.handlebody import boundary_block_matrix, homology, run_over_matrix
from kirbycalc.intmat import (
    FgAbelianGroup,
    IntMatrix,
    _eliminate,
    _unit_pivots,
    block_diag,
    cokernel,
    determinant,
    is_unimodular,
    kernel_basis,
    signature,
    smith_normal_form,
    solve_integer,
    with_relations,
)

from .gens import (
    rand_matrix,
    rand_moved_handlebody,
    rand_symmetric,
    rand_unimodular,
)


def cofactor_det(m):
    """Independent determinant oracle: first-row cofactor expansion."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        sub = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        total += (-1) ** j * m[0, j] * cofactor_det(sub)
    return total


def check_snf(m):
    s = smith_normal_form(m)
    assert s.u.mul(m).mul(s.v).equals(s.d)
    assert is_unimodular(s.u)
    assert is_unimodular(s.v)
    diag = s.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return s


def test_snf_identity():
    s = check_snf(IntMatrix.identity(2))
    assert s.d.equals(IntMatrix.identity(2))


def test_snf_2x2_derived():
    m = IntMatrix(((2, 4), (6, 8)))
    s = check_snf(m)
    assert s.diagonal() == (2, 4)
    assert abs(determinant(m)) == 2 * 4


def test_snf_zero_1x1():
    s = check_snf(IntMatrix(((0,),)))
    assert s.diagonal() == (0,)


def test_snf_empty_and_flat():
    check_snf(IntMatrix.zeros(0, 3))
    check_snf(IntMatrix.zeros(3, 0))
    check_snf(IntMatrix.zeros(0, 0))


def test_empty_matrices_keep_their_width():
    a = IntMatrix.from_rows([], cols=3)
    b = IntMatrix.from_rows([], cols=5)
    assert a.shape() == (0, 3) and b.shape() == (0, 5)
    assert a != b and not a.equals(b)
    assert hash(a) != hash(b)
    assert a == IntMatrix.zeros(0, 3) == IntMatrix.zeros(3, 0).transpose()
    assert hash(a) == hash(IntMatrix.zeros(0, 3))
    with pytest.raises(DimensionError):
        IntMatrix(((1, 2),), cols=3)


def test_non_integral_entries_raise():
    assert IntMatrix(((True, 2),)) == IntMatrix(((1, 2),))
    for bad in (1.5, 1.0, "3", None):
        with pytest.raises(TypeError):
            IntMatrix(((bad,),))


def test_with_relations_appends_torsion_columns():
    m = IntMatrix(((1, 2), (3, 4), (5, 6)))
    assert with_relations(m, (0, 4, 6)) == IntMatrix(
        ((1, 2, 0, 0), (3, 4, 4, 0), (5, 6, 0, 6)))
    assert with_relations(m, (0, 0, 0)) == m
    assert with_relations(IntMatrix.zeros(0, 2), ()) == IntMatrix.zeros(0, 2)
    rel = with_relations(IntMatrix.zeros(2, 0), (2, 3))
    assert cokernel(rel) == FgAbelianGroup(0, (6,))
    with pytest.raises(DimensionError):
        with_relations(m, (0, 4))


def test_snf_random_property():
    rng = random.Random(101)
    for _ in range(200):
        check_snf(rand_matrix(rng))


def test_cokernel_examples():
    assert cokernel(IntMatrix(((2,),))) == FgAbelianGroup(0, (2,))
    assert cokernel(IntMatrix(((1,),))).is_trivial
    assert cokernel(IntMatrix(((0, 1), (1, 0)))).is_trivial


def test_cokernel_unimodular_invariance():
    rng = random.Random(33)
    for _ in range(50):
        m = rand_matrix(rng, max_dim=4, max_entry=4)
        r, c = m.shape()
        left = rand_unimodular(rng, r)
        right = rand_unimodular(rng, c)
        assert cokernel(left.mul(m).mul(right)) == cokernel(m)


def test_kernel_examples():
    basis = kernel_basis(IntMatrix(((1, 1),)))
    assert basis.shape() == (2, 1)
    v = basis.column(0)
    assert v in ((1, -1), (-1, 1))

    assert kernel_basis(IntMatrix.identity(2)).shape() == (2, 0)
    assert kernel_basis(IntMatrix.zeros(1, 2)).shape() == (2, 2)


def test_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_matrix(rng, max_dim=4, max_entry=4)
        basis = kernel_basis(m)
        # every column is killed
        for j in range(basis.shape()[1]):
            assert all(x == 0 for x in m.apply(basis.column(j)))
        # saturation: the basis matrix has all-ones Smith diagonal
        if basis.shape()[1]:
            diag = smith_normal_form(basis).diagonal()
            assert all(d == 1 for d in diag)


def test_determinant_examples():
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(IntMatrix(((0, 1), (1, 0)))) == -1
    for f in range(-9, 10):
        assert determinant(IntMatrix(((0, 1), (1, f)))) == -1


def test_determinant_non_square():
    with pytest.raises(DimensionError):
        determinant(IntMatrix.zeros(2, 3))


def test_determinant_against_cofactor_oracle():
    rng = random.Random(77)
    for _ in range(120):
        m = rand_matrix(rng, max_dim=4, max_entry=3, rows=None, cols=None)
        r, c = m.shape()
        if r != c:
            m = rand_matrix(rng, max_entry=3, rows=r, cols=r)
        assert determinant(m) == cofactor_det(m)


def test_signature():
    assert signature(IntMatrix(((1, 0), (0, -1)))) == (1, 1, 0)
    assert signature(IntMatrix(((0, 1), (1, 0)))) == (1, 1, 0)
    assert signature(IntMatrix(((2, 0, 0), (0, 0, 0), (0, 0, -3)))) == (1, 1, 1)
    assert signature(IntMatrix.zeros(0, 0)) == (0, 0, 0)


def fraction_signature(q):
    """Reference: congruence diagonalization in Fraction arithmetic."""
    n = q.rows
    a = [[Fraction(x) for x in row] for row in q.entries]
    pos = neg = zero = 0
    k = 0
    while k < n:
        if a[k][k] == 0:
            # try to bring a nonzero diagonal entry up
            swapped = False
            for j in range(k + 1, n):
                if a[j][j] != 0:
                    a[k], a[j] = a[j], a[k]
                    for row in a:
                        row[k], row[j] = row[j], row[k]
                    swapped = True
                    break
            if not swapped:
                # all remaining diagonal zero: use an off-diagonal entry
                found = None
                for j in range(k + 1, n):
                    if a[k][j] != 0:
                        found = j
                        break
                if found is None:
                    zero += 1
                    k += 1
                    continue
                for idx in range(n):
                    a[k][idx] += a[found][idx]
                for row in a:
                    row[k] += row[found]
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / pivot
                for j in range(n):
                    a[i][j] -= f * a[k][j]
        for j in range(k + 1, n):
            if a[k][j] != 0:
                f = a[k][j] / pivot
                for i in range(n):
                    a[i][j] -= f * a[i][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        k += 1
    return (pos, neg, zero)


def degenerate_symmetric(rng, n):
    """Symmetric n x n matrices of the shapes that need the congruence moves."""
    kind = rng.randrange(4)
    if kind == 0:
        # zero diagonal, sparse off-diagonal entries
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        return IntMatrix.from_rows(rows, cols=n)
    if kind == 1:
        # P^T D P with zeros on D: rank-deficient, entries far from diagonal
        p = rand_matrix(rng, max_entry=3, rows=n, cols=n)
        d = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)]
        return IntMatrix.from_rows(
            [[sum(p[k, i] * d[k] * p[k, j] for k in range(n)) for j in range(n)]
             for i in range(n)], cols=n)
    q = [list(row) for row in rand_symmetric(rng, n, max_entry=2).entries]
    if kind == 2 and n:
        # one or two zero rows and columns
        for z in rng.sample(range(n), min(n, rng.randint(1, 2))):
            for k in range(n):
                q[z][k] = q[k][z] = 0
    return IntMatrix.from_rows(q, cols=n)


def test_signature_matches_fraction_reference_on_degenerate_forms():
    rng = random.Random(47)
    seen_zero = 0
    for _ in range(400):
        n = rng.randint(0, 8)
        q = degenerate_symmetric(rng, n)
        got = signature(q)
        assert got == fraction_signature(q), q
        assert got[2] == n - smith_normal_form(q).rank
        seen_zero += got[2] > 0
    assert seen_zero > 100


def test_cokernel_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(71)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(150)]
    for r, c in shapes:
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0
                 for _ in range(c)] for _ in range(r)]
        m = IntMatrix.from_rows(rows, cols=c)
        factors = [abs(int(x)) for x in
                   invariant_factors(sympy.Matrix(r, c, sum(rows, [])),
                                     domain=sympy.ZZ)]
        rank = sum(1 for x in factors if x != 0)
        want = FgAbelianGroup(r - rank, tuple(sorted(x for x in factors if x > 1)))
        assert cokernel(m) == want, rows


def test_kernel_and_solve_read_the_full_decomposition():
    rng = random.Random(19)
    for _ in range(150):
        m = rand_matrix(rng, max_dim=7, max_entry=rng.choice((1, 4, 9)))
        r, c = m.shape()
        s = smith_normal_form(m)
        assert kernel_basis(m) == s.v.submatrix(range(c), range(s.rank, c))
        diag = s.diagonal()
        for _ in range(3):
            if rng.random() < 0.5:
                b = m.apply(tuple(rng.randint(-3, 3) for _ in range(c)))
            else:
                b = tuple(rng.randint(-5, 5) for _ in range(r))
            ub = s.u.apply(b)
            y = [0] * c
            want = "unset"
            for i in range(r):
                d = diag[i] if i < len(diag) else 0
                if (d == 0 and ub[i] != 0) or (d != 0 and ub[i] % d != 0):
                    want = None
                    break
                if d:
                    y[i] = ub[i] // d
            if want == "unset":
                want = s.v.apply(tuple(y))
            assert solve_integer(m, b) == want
            assert s.solve(b) == want


def test_group_canonical_form():
    g = FgAbelianGroup.from_orders((2, 3, 0))
    assert g == FgAbelianGroup(1, (6,))
    assert str(g) == "Z + Z/6"
    assert str(FgAbelianGroup.trivial()) == "0"
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))  # chain broken
    assert FgAbelianGroup(1, ()).direct_sum(FgAbelianGroup(0, (2,))) == \
        FgAbelianGroup(1, (2,))


def test_solve_integer():
    a = IntMatrix(((2, 0), (0, 3)))
    assert solve_integer(a, (4, 9)) == (2, 3)
    assert solve_integer(a, (1, 0)) is None
    sol = solve_integer(IntMatrix(((1, 1),)), (5,))
    assert sum(sol) == 5


def test_from_rows_rejects_a_contradicting_width():
    assert IntMatrix.from_rows([[1, 2]], cols=2) == IntMatrix(((1, 2),))
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2]], cols=3)


def test_group_rejects_non_integral_ranks_and_divisors():
    assert FgAbelianGroup(True, (2,)) == FgAbelianGroup(1, (2,))
    for bad in (2.7, 2.0, "2"):
        with pytest.raises(TypeError):
            FgAbelianGroup(0, (bad,))
        with pytest.raises(TypeError):
            FgAbelianGroup(bad, ())


def test_solve_integer_rejects_a_non_integral_right_hand_side():
    a = IntMatrix(((2,),))
    assert solve_integer(a, (2,)) == (1,)
    for bad in (2.0, 2.5, "2"):
        with pytest.raises(TypeError):
            solve_integer(a, (bad,))


def test_decomposition_solve_rejects_a_non_integral_right_hand_side():
    s = smith_normal_form(IntMatrix(((2,),)))
    assert s.solve((2,)) == (1,)
    for bad in (2.0, 2.5, "2"):
        with pytest.raises(TypeError):
            s.solve((bad,))


def test_apply_rejects_a_non_integral_vector():
    m = IntMatrix(((2, 1), (1, 1)))
    assert m.apply((1, 2)) == (4, 3)
    for bad in ((1.5, 2), (1.0, 2), ("1", 2)):
        with pytest.raises(TypeError):
            m.apply(bad)


def _same_value(got, twin):
    """got equals and hashes like twin, and holds tuples of int tuples."""
    assert got == twin and hash(got) == hash(twin)
    assert type(got.entries) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row)
               for row in got.entries)


def test_mul_and_transpose_match_plain_loops():
    rng = random.Random(1208)
    shapes = [(r, k, c) for r in range(4) for k in range(4) for c in range(4)]
    for r, k, c in shapes * 3:
        a, b = rand_matrix(rng, rows=r, cols=k), rand_matrix(rng, rows=k, cols=c)
        want = [[0] * c for _ in range(r)]
        for i in range(r):
            for j in range(c):
                for t in range(k):
                    want[i][j] += a[i, t] * b[t, j]
        _same_value(a.mul(b), IntMatrix.from_rows(want, cols=c))
        _same_value(b.transpose(), IntMatrix.from_rows(
            [[b[t, j] for t in range(k)] for j in range(c)], cols=k))
    assert IntMatrix.zeros(3, 0).mul(IntMatrix.zeros(0, 2)) == IntMatrix.zeros(3, 2)
    for r, c in ((3, 0), (0, 2)):
        _same_value(IntMatrix.zeros(r, c).transpose(), IntMatrix.zeros(c, r))
        _same_value(IntMatrix.zeros(r, c).mul(IntMatrix.zeros(c, r)),
                    IntMatrix.zeros(r, r))
    with pytest.raises(DimensionError):
        IntMatrix.zeros(2, 3).mul(IntMatrix.zeros(2, 3))


def test_internal_builds_match_their_checked_twins():
    """Every matrix built without __post_init__ equals its from_rows twin
    and holds tuples of plain ints."""
    rng = random.Random(1902)
    for _ in range(150):
        m, b = rand_matrix(rng), rand_matrix(rng, max_dim=3)
        r, c = m.shape()
        diag = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        rows = [rng.randrange(r) for _ in range(rng.randint(0, 4))] if r else []
        cols = [rng.randrange(c) for _ in range(rng.randint(0, 4))] if c else []
        orders = [rng.choice((0, 0, 2, 3, 12)) for _ in range(r)]
        s = smith_normal_form(m)
        built = {
            "from_diagonal": (IntMatrix.from_diagonal(iter(diag)),
                              [[x if i == j else 0 for j in range(len(diag))]
                               for i, x in enumerate(diag)]),
            "identity": (IntMatrix.identity(len(diag)),
                         [[int(i == j) for j in range(len(diag))] for i in range(len(diag))]),
            "zeros": (IntMatrix.zeros(r, c), [[0] * c for _ in range(r)]),
            "submatrix": (m.submatrix(rows, cols), [[m[i, j] for j in cols] for i in rows]),
            "block_diag": (block_diag(m, b),
                           [list(row) + [0] * b.cols for row in m.entries]
                           + [[0] * c + list(row) for row in b.entries]),
            "with_relations": (with_relations(m, orders),
                               [list(row) + [t if i == k else 0 for k, t in enumerate(orders) if t]
                                for i, row in enumerate(m.entries)]),
        }
        for got, want in built.values():
            width = len(want[0]) if want else got.cols
            _same_value(got, IntMatrix.from_rows(want, cols=width))
        for got in (s.u, s.d, s.v, kernel_basis(m)):
            _same_value(got, IntMatrix.from_rows(got.entries, got.cols))
    _same_value(IntMatrix.from_diagonal((True, -1)), IntMatrix(((1, 0), (0, -1))))
    _same_value(with_relations(IntMatrix.zeros(2, 0), (True, 2)),
                IntMatrix(((1, 0), (0, 2))))


def test_public_constructors_keep_their_refusals():
    not_int = "'float' object cannot be interpreted as an integer"
    m = IntMatrix(((1, 2), (3, 4)))
    for call, error, message in (
            (lambda: IntMatrix(((1, 2), (3,))), DimensionError, "ragged rows"),
            (lambda: IntMatrix.from_rows([[1, 2]], cols=3), DimensionError,
             "rows of length 2 but cols=3"),
            (lambda: IntMatrix((), -3), DimensionError, "negative column count -3"),
            (lambda: IntMatrix(((1.5,),)), TypeError, not_int),
            (lambda: IntMatrix.from_rows([["3"]]), TypeError,
             "'str' object cannot be interpreted as an integer"),
            (lambda: IntMatrix.zeros(-2, 3), DimensionError, "negative row count -2"),
            (lambda: IntMatrix.zeros(0, -2), DimensionError, "negative column count -2"),
            (lambda: IntMatrix.zeros(2, -2), DimensionError, "negative column count -2"),
            (lambda: IntMatrix.zeros(2.0, 2), TypeError, not_int),
            (lambda: IntMatrix.zeros(2, 2.0), TypeError, not_int),
            (lambda: IntMatrix.identity(-2), DimensionError, "negative size -2"),
            (lambda: IntMatrix.identity(2.0), TypeError, not_int),
            (lambda: IntMatrix.from_diagonal([1, 2.5]), TypeError, not_int),
            (lambda: IntMatrix.from_diagonal([None]), TypeError,
             "'NoneType' object cannot be interpreted as an integer"),
            (lambda: with_relations(m, (0, 2.0)), TypeError, not_int),
            (lambda: with_relations(m, (0,)), DimensionError, "1 orders for 2 rows"),
            (lambda: m.submatrix([0], [2]), DimensionError,
             "column index 2 out of range for size 2"),
            (lambda: m.submatrix([-1], [0]), DimensionError,
             "row index -1 out of range for size 2")):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


def test_submatrix_refuses_an_index_out_of_range():
    m = IntMatrix(((1, 2),))
    assert m.submatrix([0], [1]) == IntMatrix(((2,),))
    for rows, cols, what in (([0], [-1], "column index -1 out of range for size 2"),
                             ([0], [2], "column index 2 out of range for size 2"),
                             ([-1], [0], "row index -1 out of range for size 1"),
                             ([1], [], "row index 1 out of range for size 1")):
        with pytest.raises(DimensionError, match=what):
            m.submatrix(rows, cols)


def test_negative_column_count_is_refused():
    with pytest.raises(DimensionError):
        IntMatrix((), -3)


def test_zeros_refuses_a_negative_column_count():
    with pytest.raises(DimensionError):
        IntMatrix.zeros(0, -2)


def test_non_integral_column_count_is_refused():
    with pytest.raises(TypeError):
        IntMatrix((), 2.0)


def test_zeros_refuses_a_negative_row_count():
    with pytest.raises(DimensionError):
        IntMatrix.zeros(-2, 3)


def test_identity_refuses_a_negative_size():
    with pytest.raises(DimensionError):
        IntMatrix.identity(-2)


# ---------------------------------------------------------------------------
# the sparse unit-pivot pass of cokernel


def reference_cokernel(m):
    """The cokernel read off one Smith elimination of the whole matrix."""
    diag = _eliminate([list(r) for r in m.entries], [], [])
    rank = sum(1 for d in diag if d != 0)
    return FgAbelianGroup(m.rows - rank, tuple(d for d in diag if d > 1))


def rand_sparse_units(rng, rows, cols, density):
    return IntMatrix.from_rows(
        [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)], cols=cols)


def rand_boundary_block(rng, max_rows=None):
    while True:
        block = boundary_block_matrix(rand_moved_handlebody(rng))
        if max_rows is None or block.rows <= max_rows:
            return block


def test_cokernel_matches_one_whole_elimination():
    rng = random.Random(2909)
    cases = [IntMatrix.zeros(r, c) for r, c in
             [(0, 0)] + [(0, n) for n in range(1, 6)] + [(n, 0) for n in range(1, 6)]]
    cases += [rand_matrix(rng, max_dim=7) for _ in range(2500)]
    cases += [rand_sparse_units(rng, rng.randint(1, 12), rng.randint(1, 12),
                                rng.uniform(0.1, 0.5)) for _ in range(4000)]
    cases += [rand_boundary_block(rng) for _ in range(10_000 - len(cases))]
    assert len(cases) == 10_000
    torsion = free = remainder = 0
    for m in cases:
        got = cokernel(m)
        assert got == reference_cokernel(m), m
        torsion += bool(got.torsion_divisors)
        free += got.free_rank > 0
        remainder += bool(_unit_pivots(m)[1])
    assert min(torsion, free, remainder) > 500


def test_unit_pivots_leave_no_unit_and_keep_the_rank():
    rng = random.Random(4111)
    for _ in range(300):
        if rng.random() < 0.5:
            m = rand_boundary_block(rng)
        else:
            m = rand_sparse_units(rng, rng.randint(1, 10), rng.randint(1, 10),
                                  rng.uniform(0.1, 0.5))
        pivots, rest = _unit_pivots(m)
        assert all(abs(x) != 1 for row in rest for x in row)
        assert all(any(row) for row in rest)
        assert all(any(row[j] for row in rest) for j in range(len(rest[0]) if rest else 0))
        rank = sum(1 for d in _eliminate(rest, [], []) if d != 0)
        assert pivots + rank == smith_normal_form(m).rank


def test_cokernel_of_unit_blocks_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(5303)
    cases = [rand_boundary_block(rng, max_rows=20) for _ in range(150)]
    cases += [rand_sparse_units(rng, rng.randint(1, 20), rng.randint(1, 20),
                                rng.uniform(0.1, 0.5)) for _ in range(150)]
    assert max(m.rows for m in cases) == 20
    for m in cases:
        r, c = m.shape()
        factors = [abs(int(x)) for x in
                   invariant_factors(sympy.Matrix(r, c, [x for row in m.entries for x in row]),
                                     domain=sympy.ZZ)]
        rank = sum(1 for x in factors if x != 0)
        want = FgAbelianGroup(r - rank, tuple(sorted(x for x in factors if x > 1)))
        assert cokernel(m) == want, m


def test_cokernel_of_unit_blocks_is_unimodular_invariant():
    rng = random.Random(6007)
    for _ in range(200):
        if rng.random() < 0.5:
            m = rand_boundary_block(rng, max_rows=14)
        else:
            m = rand_sparse_units(rng, rng.randint(1, 10), rng.randint(1, 10),
                                  rng.uniform(0.1, 0.5))
        r, c = m.shape()
        left = rand_unimodular(rng, r, moves=rng.randint(0, 12), max_shear=1)
        right = rand_unimodular(rng, c, moves=rng.randint(0, 12), max_shear=1)
        assert cokernel(left.mul(m).mul(right)) == cokernel(m)


def test_swapping_two_rows_negates_the_determinant():
    rng = random.Random(9173)
    for _ in range(300):
        if rng.random() < 0.5:
            m = rand_boundary_block(rng)
        else:
            n = rng.randint(2, 10)
            m = rand_sparse_units(rng, n, n, rng.uniform(0.1, 0.5))
        rows = [list(r) for r in m.entries]
        i, j = rng.sample(range(m.rows), 2)
        rows[i], rows[j] = rows[j], rows[i]
        swapped = IntMatrix.from_rows(rows, cols=m.cols)
        assert determinant(swapped) == -determinant(m), m
        assert cokernel(swapped) == cokernel(m), m


# ---------------------------------------------------------------------------
# replayed operations against eliminations that track U and V in full


class Tracked:
    """A Smith elimination in progress that applies every row operation to
    U and every column operation to V (and V^-1) as it goes, on whole rows
    and columns of the matrix, and records them as _eliminate does.

    exact stays True while no pivot left a remainder and no row was folded
    for divisibility: every quotient was then exact.
    """

    def __init__(self, m):
        self.rows, self.cols = m.shape()
        self.a = [list(r) for r in m.entries]
        self.u = [[int(i == j) for j in range(self.rows)] for i in range(self.rows)]
        self.v = [[int(i == j) for j in range(self.cols)] for i in range(self.cols)]  # columns
        self.vinv = [[int(i == j) for j in range(self.cols)] for i in range(self.cols)]
        self.rops = []
        self.ops = []
        self.exact = True

    def swap_rows(self, i, j):
        a, u = self.a, self.u
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        self.rops.append((i, j, None))

    def swap_cols(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        v, vinv = self.v, self.vinv
        v[i], v[j] = v[j], v[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]
        self.ops.append((i, j, None))

    def row_sub(self, i, j, q):
        a, u = self.a, self.u
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        self.rops.append((i, j, q))

    def col_sub(self, i, j, q):
        for row in self.a:
            row[i] -= q * row[j]
        v, vinv = self.v, self.vinv
        v[i] = [x - q * y for x, y in zip(v[i], v[j])]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]
        self.ops.append((i, j, q))

    def diagonal(self):
        return tuple(self.a[i][i] for i in range(min(self.rows, self.cols)))

    def udv(self):
        return (IntMatrix.from_rows(self.u, cols=self.rows),
                IntMatrix.from_rows(self.a, cols=self.cols),
                IntMatrix.from_rows(zip(*self.v), cols=self.cols))


def tracked_smith(m, improve):
    """A Tracked Smith elimination of m with _eliminate's pivot scan,
    divisibility fold and sign fix; improve(e, t) takes one step towards
    clearing pivot t's column and row, and returns False once both are
    clear."""
    e = Tracked(m)
    a = e.a
    rows, cols = m.shape()
    for t in range(min(rows, cols)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols)
                   if a[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        e.swap_rows(t, pi)
        e.swap_cols(t, pj)
        while True:
            if improve(e, t):
                continue
            offender = next((i for i in range(t + 1, rows)
                             if any(a[i][j] % a[t][t] for j in range(t + 1, cols))), None)
            if offender is None:
                break
            e.row_sub(t, offender, -1)
            e.exact = False
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            e.u[i] = [-x for x in e.u[i]]
            e.rops.append((i, i, 2))
    return e


def classical_step(e, t):
    """The classical pivot improvement: the first nonzero entry below the
    pivot, else along its row, takes the floor quotient, and a nonzero
    remainder is swapped in as the new pivot at once."""
    a = e.a
    i = next((i for i in range(t + 1, e.rows) if a[i][t]), None)
    if i is not None:
        q, r = divmod(a[i][t], a[t][t])
        e.row_sub(i, t, q)
        if r:
            e.swap_rows(t, i)
            e.exact = False
        return True
    j = next((j for j in range(t + 1, e.cols) if a[t][j]), None)
    if j is not None:
        q, r = divmod(a[t][j], a[t][t])
        e.col_sub(j, t, q)
        if r:
            e.swap_cols(t, j)
            e.exact = False
        return True
    return False


def nearest_quotient(x, p):
    """The q of least |x - q p|; a tie takes the lower q."""
    return math.ceil(Fraction(x, p) - Fraction(1, 2))


def least_remainder_round(e, t):
    """One round of _eliminate's pivot improvement: every nonzero entry
    below the pivot, else along its row, drops to its least remainder,
    and the first of the smallest nonzero remainders is swapped in as the
    new pivot."""
    a = e.a
    p = a[t][t]
    below = [i for i in range(t + 1, e.rows) if a[i][t]]
    if below:
        for i in below:
            if q := nearest_quotient(a[i][t], p):
                e.row_sub(i, t, q)
        if left := [i for i in below if a[i][t]]:
            e.swap_rows(t, min(left, key=lambda i: abs(a[i][t])))
        return True
    right = [j for j in range(t + 1, e.cols) if a[t][j]]
    if right:
        for j in right:
            if q := nearest_quotient(a[t][j], p):
                e.col_sub(j, t, q)
        if left := [j for j in right if a[t][j]]:
            e.swap_cols(t, min(left, key=lambda j: abs(a[t][j])))
        return True
    return False


def reference_smith(m):
    """(U, D, V) from a tracked elimination with the pivot rules of
    _eliminate."""
    return tracked_smith(m, least_remainder_round).udv()


def classical_smith(m):
    """The tracked elimination with the classical pivot improvement."""
    return tracked_smith(m, classical_step)


def reference_solve(u, d, v, b):
    """V y for the y with D y = U b, by whole matrix products, or None."""
    ub = u.apply(b)
    y = [0] * v.cols
    for i, c in enumerate(ub):
        di = d[i, i] if i < min(d.shape()) else 0
        if (c % di if di else c) != 0:
            return None
        if di:
            y[i] = c // di
    return v.apply(y)


@contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging it, if the block runs too long."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def rand_rank_deficient(rng):
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    k = rng.randint(0, min(r, c) - 1)
    left = rand_matrix(rng, rows=r, cols=k, max_entry=3)
    right = rand_matrix(rng, rows=k, cols=c, max_entry=3)
    return left.mul(right)


def replay_cases(rng):
    """10,000 (matrix, handlebody or None) pairs: empty shapes, dense,
    sparse +-1 and rank-deficient matrices, then run-over matrices of
    moved handlebodies."""
    cases = [(IntMatrix.zeros(r, c), None) for r, c in
             [(0, 0)] + [(0, n) for n in range(1, 8)] + [(n, 0) for n in range(1, 8)]]
    cases += [(rand_matrix(rng, max_dim=7), None) for _ in range(3000)]
    cases += [(rand_sparse_units(rng, rng.randint(1, 8), rng.randint(1, 8),
                                 rng.uniform(0.1, 0.6)), None) for _ in range(2000)]
    cases += [(rand_rank_deficient(rng), None) for _ in range(2000)]
    while len(cases) < 10_000:
        h = rand_moved_handlebody(rng)
        cases.append((run_over_matrix(h), h))
    return cases


def test_replayed_transforms_match_an_elimination_that_tracks_v():
    rng = random.Random(6151)
    kernels = unsolvable = trailing = 0
    for m, h in replay_cases(rng):
        u, d, v = reference_smith(m)
        with time_limit(10):
            s = smith_normal_form(m)
        assert (s.u, s.d, s.v) == (u, d, v), m
        r, c = m.shape()
        rank = s.rank
        kernel = v.submatrix(range(c), range(rank, c))
        assert kernel_basis(m) == kernel, m
        group = FgAbelianGroup(r - rank, tuple(x for x in s.diagonal() if x > 1))
        if h is not None:
            profile = homology(h)
            assert (profile.h2_basis, profile.h1) == (kernel, group), h
        for b in (m.apply(tuple(rng.randint(-3, 3) for _ in range(c))),
                  tuple(rng.randint(-9, 9) for _ in range(r))):
            want = reference_solve(u, d, v, b)
            assert solve_integer(m, b) == want, (m, b)
            assert s.solve(b) == want, (m, b)
            unsolvable += want is None
        kernels += c > rank
        trailing += rank >= 2
    assert min(kernels, unsolvable, trailing) > 500


def test_least_remainder_rounds_agree_with_the_classical_elimination():
    """Against the classical pivot improvement: the same diagonal, kernels
    spanning the same lattice, congruent intersection forms, and the same
    recorded operations wherever every classical quotient was exact."""
    exact = changed = forms = 0
    for m, h in replay_cases(random.Random(6151)):
        old = classical_smith(m)
        rops, ops = [], []
        assert _eliminate([list(r) for r in m.entries], rops, ops) == old.diagonal(), m
        if old.exact:
            assert (rops, ops) == (old.rops, old.ops), m
        exact += old.exact
        rank = sum(1 for x in old.diagonal() if x)
        c = m.cols
        kernel = kernel_basis(m)
        old_kernel = old.udv()[2].submatrix(range(c), range(rank, c))
        # in V_old's basis a kernel vector has no coordinate before rank,
        # so kernel = old_kernel P for P the rest of its coordinates
        coords = IntMatrix.from_rows(old.vinv, cols=c).mul(kernel)
        assert all(x == 0 for row in coords.entries[:rank] for x in row), m
        p = coords.submatrix(range(rank, c), range(c - rank))
        assert abs(determinant(p)) == 1, m
        assert old_kernel.mul(p) == kernel, m
        changed += kernel != old_kernel
        if h is not None:
            form = homology(h).intersection_form
            old_form = old_kernel.transpose().mul(h.linking).mul(old_kernel)
            assert form == p.transpose().mul(old_form).mul(p), h
            forms += form != old_form
    assert min(exact, changed) > 500
    assert forms > 0


def test_smith_transforms_of_dense_matrices_stay_small():
    for n, limit in ((24, 2048), (32, 4096)):
        for seed in range(5):
            rng = random.Random(seed)
            m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            with time_limit(10):
                s = smith_normal_form(m)
            assert s.u.mul(m).mul(s.v) == s.d
            bits = max(abs(x).bit_length() for t in (s.u, s.v) for row in t.entries for x in row)
            assert bits <= limit, (n, seed, bits)


def test_integer_solutions_of_dense_systems_stay_small():
    for seed in range(300):
        rng = random.Random(seed)
        r = rng.randint(12, 22)
        c = min(max(r + rng.randint(-4, 4), 12), 24)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        b = m.apply([rng.randint(-3, 3) for _ in range(c)])
        x = solve_integer(m, b)
        assert x is not None and m.apply(x) == b
        assert max(abs(v).bit_length() for v in x) <= 1024, seed

import random
from fractions import Fraction

import pytest

from kirbycalc.errors import DimensionError
from kirbycalc.handlebody import boundary_block_matrix
from kirbycalc.intmat import (
    FgAbelianGroup,
    IntMatrix,
    _eliminate,
    _unit_pivots,
    cokernel,
    cokernel_and_determinant,
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
        pivots, rest, _ = _unit_pivots(m)
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


# the determinant read off the same sparse pass


def test_cokernel_and_determinant_match_the_separate_calls():
    rng = random.Random(7331)
    cases = [IntMatrix.zeros(r, c) for r, c in [(0, 0), (0, 3), (3, 0), (3, 3)]]
    cases += [rand_matrix(rng, max_dim=7) for _ in range(2000)]
    cases += [rand_matrix(rng, rows=n, cols=n)
              for n in (rng.randint(1, 7) for _ in range(1500))]
    for _ in range(3500):
        r = rng.randint(1, 12)
        c = r if rng.random() < 0.7 else rng.randint(1, 12)
        cases.append(rand_sparse_units(rng, r, c, rng.uniform(0.1, 0.5)))
    cases += [rand_boundary_block(rng) for _ in range(10_000 - len(cases))]
    assert len(cases) == 10_000
    signs = {-1: 0, 0: 0, 1: 0}
    non_square = 0
    for m in cases:
        if not m.is_square():
            non_square += 1
            with pytest.raises(DimensionError):
                cokernel_and_determinant(m)
            continue
        det = determinant(m)
        assert cokernel_and_determinant(m) == (cokernel(m), det), m
        signs[(det > 0) - (det < 0)] += 1
    assert min(non_square, *signs.values()) > 500


def test_cokernel_and_determinant_of_blocks_matches_sympy_det():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8629)
    dets = set()
    for _ in range(200):
        m = rand_boundary_block(rng, max_rows=20)
        n = m.rows
        want = int(sympy.Matrix(n, n, [x for row in m.entries for x in row]).det())
        assert cokernel_and_determinant(m)[1] == want, m
        dets.add(want)
    assert len(dets) > 5


def test_swapping_two_rows_negates_the_determinant():
    rng = random.Random(9173)
    for _ in range(300):
        if rng.random() < 0.5:
            m = rand_boundary_block(rng)
        else:
            n = rng.randint(2, 10)
            m = rand_sparse_units(rng, n, n, rng.uniform(0.1, 0.5))
        group, det = cokernel_and_determinant(m)
        rows = [list(r) for r in m.entries]
        i, j = rng.sample(range(m.rows), 2)
        rows[i], rows[j] = rows[j], rows[i]
        swapped = IntMatrix.from_rows(rows, cols=m.cols)
        assert cokernel_and_determinant(swapped) == (group, -det), m

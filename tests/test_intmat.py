import random

import pytest

from kirbycalc.errors import DimensionError
from kirbycalc.intmat import (
    FgAbelianGroup,
    IntMatrix,
    cokernel,
    determinant,
    is_unimodular,
    kernel_basis,
    signature,
    smith_normal_form,
    solve_integer,
    with_relations,
)

from .gens import rand_matrix, rand_unimodular


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

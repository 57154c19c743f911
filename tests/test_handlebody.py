import random

import pytest

from kirbycalc.errors import PreconditionError
from kirbycalc.handlebody import (
    TAG_CANCELING_PAIRS,
    TAG_SLICE_TWO_HANDLES,
    TwoHandle,
    attach_canceling_pairs,
    attach_one_handle,
    attach_two_handles_zero_framed,
    boundary_block_matrix,
    boundary_sum,
    connected_sum_model,
    empty_handlebody,
    handlebody,
    hihc_certificate,
    homology,
    is_homology_sphere_boundary,
    mazur_cork_template,
    profiles_isomorphic,
    run_over_matrix,
    w_minus,
    w_plus,
)
from kirbycalc.intmat import (
    FgAbelianGroup,
    IntMatrix,
    _eliminate,
    block_diag,
    cokernel,
    determinant,
    kernel_basis,
)
from kirbycalc.legendrian import UNKNOT_FRONT, thurston_bennequin
from kirbycalc.textio import render_handlebody

from .gens import rand_handlebody, rand_moved_handlebody

S2XD2 = handlebody(0, [((), 0)])


def test_run_over_examples():
    h = handlebody(1, [((1, -1, 1), 0)])
    assert run_over_matrix(h).equals(IntMatrix(((1,),)))

    h = handlebody(0, [((), 0), ((), 1)])
    assert run_over_matrix(h).shape() == (0, 2)

    h = handlebody(2, [((1, 2), 0), ((-1,), 0)])
    assert run_over_matrix(h).equals(IntMatrix(((1, -1), (1, 0))))


def _reference_run_over(h):
    """A[g - 1][j] = exponent sum of letter g in word j, read off the definition."""
    return [[th.word.count(g) - th.word.count(-g) for th in h.two_handles]
            for g in range(1, h.k + 1)]


def _reference_boundary_block(h):
    """[[0, A], [A^T, linking]], entry by entry."""
    a, k = _reference_run_over(h), h.k

    def entry(i, j):
        if i < k:
            return 0 if j < k else a[i][j - k]
        return a[j][i - k] if j < k else h.linking[i - k, j - k]

    return [[entry(i, j) for j in range(k + h.n)] for i in range(k + h.n)]


def test_run_over_and_boundary_block_follow_the_definitions():
    rng = random.Random(31)
    cases = [handlebody(0), handlebody(3), handlebody(0, [((), 1), ((), -2)]),
             handlebody(3, [((2, 2, -2, 2), 0), ((), 1)])]
    cases += [rand_handlebody(rng, max_k=4, max_n=4) for _ in range(60)]
    seen = set()
    for h in cases:
        used = {abs(x) for th in h.two_handles for x in th.word}
        seen |= {"k=0"} if h.k == 0 else set()
        seen |= {"n=0"} if h.n == 0 else set()
        seen |= {"unused dotted handle"} if len(used) < h.k else set()
        if any(len(set(map(abs, th.word))) < len(th.word) for th in h.two_handles):
            seen.add("repeated letter")
        a, block = run_over_matrix(h), boundary_block_matrix(h)
        assert a.shape() == (h.k, h.n)
        assert block.shape() == (h.k + h.n, h.k + h.n)
        want_a, want_block = _reference_run_over(h), _reference_boundary_block(h)
        for i in range(h.k):
            for j in range(h.n):
                assert a[i, j] == want_a[i][j]
        for i in range(h.k + h.n):
            for j in range(h.k + h.n):
                assert block[i, j] == want_block[i][j]
    assert seen == {"k=0", "n=0", "unused dotted handle", "repeated letter"}


def test_homology_reads_each_group_from_its_own_matrix():
    rng = random.Random(47)
    for _ in range(200):
        h = rand_moved_handlebody(rng)
        a = run_over_matrix(h)
        p = homology(h)
        assert p.h1 == cokernel(a)
        assert p.h2_basis == kernel_basis(a)
        assert p.boundary_h1 == cokernel(boundary_block_matrix(h))


def _doubled(h):
    """h with every word written twice: each exponent sum doubles, so A
    has no unit divisor."""
    return handlebody(h.k, [(th.word * 2, th.framing) for th in h.two_handles],
                      h.linking)


def _cork_sum(rng):
    out = mazur_cork_template(*(rng.randint(1, 3) for _ in range(3)))
    for _ in range(rng.randint(0, 3)):
        out = boundary_sum(out, mazur_cork_template(*(rng.randint(1, 3) for _ in range(3))))
    return attach_canceling_pairs(out, rng.randint(0, 2))


def _homology_cases(rng, count):
    """count handlebodies: moved ones, cork sums, k = 0, n = 0, and A
    with only unit or no unit divisors, in turn."""
    makers = (
        lambda: rand_moved_handlebody(rng),
        lambda: rand_moved_handlebody(rng, max_k=6, max_n=6, max_pairs=2),
        lambda: _cork_sum(rng),
        lambda: rand_handlebody(rng, max_k=0, max_n=5),
        lambda: handlebody(rng.randint(0, 5)),
        lambda: _doubled(rand_handlebody(rng, max_k=4, max_n=5, min_n=1)),
        lambda: attach_canceling_pairs(rand_handlebody(rng, max_k=0, max_n=4),
                                       rng.randint(1, 4)),
    )
    return [makers[i % len(makers)]() for i in range(count)]


def test_homology_matches_the_full_boundary_block():
    """homology reads boundary H1 and the block determinant from a block
    reduced by A's own elimination; the reference eliminates A and the
    full block apart, and takes a dense Bareiss determinant of the
    latter."""
    rng = random.Random(1609)
    seen = set()
    for h in _homology_cases(rng, 10_000):
        a = run_over_matrix(h)
        diag = _eliminate([list(row) for row in a.entries], [], [])
        units = diag.count(1)
        p = homology(h)
        seen |= {"k=0"} if h.k == 0 else set()
        seen |= {"n=0"} if h.n == 0 else set()
        seen |= {"all-unit"} if diag and units == len(diag) else set()
        seen |= {"no-unit"} if any(diag) and units == 0 else set()
        seen |= {"mixed"} if 0 < units < sum(1 for d in diag if d) else set()
        seen |= {"torsion"} if p.boundary_h1.torsion_divisors else set()
        basis = kernel_basis(a)
        assert p.h1 == cokernel(a)
        assert p.h2_rank == basis.cols
        assert p.h2_basis == basis
        assert p.intersection_form == basis.transpose().mul(h.linking).mul(basis)
        block = boundary_block_matrix(h)
        assert p.boundary_h1 == cokernel(block), h
        det = determinant(block)
        assert p.boundary_determinant == det, h
        seen.add(("det<0", "det=0", "det>0")[(det > 0) - (det < 0) + 1])
    assert seen == {"k=0", "n=0", "all-unit", "no-unit", "mixed", "torsion",
                    "det<0", "det=0", "det>0"}


def test_homology_boundary_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(1613)
    torsion = 0
    for h in _homology_cases(rng, 200):
        b = boundary_block_matrix(h)
        n = b.rows
        factors = [abs(int(x)) for x in invariant_factors(
            sympy.Matrix(n, n, [x for row in b.entries for x in row]), domain=sympy.ZZ)]
        rank = sum(1 for x in factors if x != 0)
        want = FgAbelianGroup(n - rank, tuple(sorted(x for x in factors if x > 1)))
        assert homology(h).boundary_h1 == want, h
        torsion += bool(want.torsion_divisors)
    assert torsion > 10


def test_homology_boundary_determinant_matches_sympy_det():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8629)
    dets = set()
    for h in _homology_cases(rng, 200):
        b = boundary_block_matrix(h)
        n = b.rows
        want = int(sympy.Matrix(n, n, [x for row in b.entries for x in row]).det())
        assert homology(h).boundary_determinant == want, h
        dets.add(want)
    assert len(dets) > 5 and min(dets) < 0 < max(dets) and 0 in dets


def test_homology_sphere_boundary_is_a_unit_block_determinant():
    rng = random.Random(53)
    seen = set()
    for _ in range(300):
        h = rand_moved_handlebody(rng, max_k=2, max_n=2)
        want = abs(determinant(boundary_block_matrix(h))) == 1
        assert is_homology_sphere_boundary(h) == want
        seen.add(want)
    assert seen == {True, False}


def test_homology_d4():
    p = homology(empty_handlebody())
    assert p.h1.is_trivial and p.h2_rank == 0 and p.boundary_h1.is_trivial


def test_homology_s2xd2():
    p = homology(S2XD2)
    assert p.h1.is_trivial
    assert p.h2_rank == 1
    assert p.intersection_form.equals(IntMatrix(((0,),)))
    assert p.boundary_h1 == FgAbelianGroup(1, ())


def test_homology_lens_boundary():
    for n in (-4, 2, 5):
        p = homology(handlebody(0, [((), n)]))
        assert p.boundary_h1 == FgAbelianGroup(0, (abs(n),))


def test_invalid_word_letter():
    with pytest.raises(PreconditionError):
        handlebody(1, [((2,), 0)])


def test_linking_diagonal_must_match_framing():
    with pytest.raises(PreconditionError):
        handlebody(0, [((), 1)], IntMatrix(((0,),)))


# ---------------------------------------------------------------------------
# Mazur-type templates


def test_mazur_template_contractible():
    c = mazur_cork_template(1, 1, 1)
    p = homology(c)
    assert p.h1.is_trivial and p.h2_rank == 0


def test_mazur_template_boundary_is_homology_sphere():
    for (r, s, m) in ((1, 1, 1), (2, 1, 3), (3, 3, 3)):
        c = mazur_cork_template(r, s, m)
        assert abs(determinant(boundary_block_matrix(c))) == 1
        assert is_homology_sphere_boundary(c)


def test_mazur_word_exponent_sum_is_one():
    for (r, s, m) in ((1, 1, 1), (2, 3, 1), (3, 2, 2)):
        c = mazur_cork_template(r, s, m)
        word = c.two_handles[0].word
        assert sum(1 if x > 0 else -1 for x in word) == 1
        assert c.two_handles[0].framing == 0


def test_mazur_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        mazur_cork_template(0, 1, 1)


# ---------------------------------------------------------------------------
# canceling-pair insertions


def test_w_minus_on_s2xd2():
    out = w_minus(S2XD2, 0, 1)
    p = homology(out)
    assert p.h2_rank == 1
    assert p.intersection_form.equals(IntMatrix(((0,),)))
    assert p.boundary_h1 == FgAbelianGroup(1, ())
    assert profiles_isomorphic(homology(S2XD2), p)


def test_w_moves_preserve_h1_and_framing():
    rng = random.Random(2)
    for _ in range(30):
        h = rand_handlebody(rng, min_n=1)
        target = rng.randrange(h.n)
        p = rng.randint(1, 3)
        out = rng.choice((w_minus, w_plus))(h, target, p)
        assert homology(out).h1 == homology(h).h1
        for i in range(h.n):
            assert out.two_handles[i].framing == h.two_handles[i].framing


def test_w_plus_tb_bookkeeping():
    h = handlebody(0, [((), 0, UNKNOT_FRONT)])
    before = thurston_bennequin(h.two_handles[0].front)
    out = w_plus(h, 0, 2)
    assert thurston_bennequin(out.two_handles[0].front) == before + 2
    assert thurston_bennequin(out.two_handles[1].front) == 2
    assert profiles_isomorphic(homology(h), homology(out))


def test_w_move_invalid_target():
    with pytest.raises(PreconditionError):
        w_minus(S2XD2, 3, 1)


# ---------------------------------------------------------------------------
# attachments


def test_attach_null_two_handle_gives_s2xd2_profile():
    out = attach_two_handles_zero_framed(empty_handlebody(), [()])
    p = homology(out)
    assert p.h2_rank == 1 and p.intersection_form.equals(IntMatrix(((0,),)))


def test_slice_marked_attachment_carries_tag():
    out = attach_two_handles_zero_framed(empty_handlebody(), [()],
                                         slice_marked=True)
    assert TAG_SLICE_TWO_HANDLES in out.cert_tags


def test_attachment_increases_b2_by_new_kernel_elements():
    rng = random.Random(9)
    for _ in range(20):
        h = rand_handlebody(rng)
        words = [()] * rng.randint(1, 2)
        out = attach_two_handles_zero_framed(h, words)
        assert homology(out).h2_rank == homology(h).h2_rank + len(words)


def test_attach_one_handle():
    out = attach_one_handle(empty_handlebody())
    assert homology(out).h1 == FgAbelianGroup(1, ())


def test_canceling_pairs_leave_profile():
    assert profiles_isomorphic(
        homology(empty_handlebody()),
        homology(attach_canceling_pairs(empty_handlebody(), 1)),
    )
    rng = random.Random(4)
    for _ in range(15):
        h = rand_handlebody(rng)
        out = attach_canceling_pairs(h, rng.randint(1, 2))
        assert profiles_isomorphic(homology(h), homology(out))


def _canceling_pair_by_hand(h):
    """One canceling pair, built from the definition: dotted handle
    g = k + 1 and an unlinked 0-framed 2-handle with word (+g)."""
    g = h.k + 1
    return handlebody(g, h.two_handles + (TwoHandle((g,), 0),),
                      block_diag(h.linking, IntMatrix.zeros(1, 1)),
                      cert_tags=h.cert_tags + (TAG_CANCELING_PAIRS,))


def test_canceling_pairs_are_built_as_one_pair_at_a_time():
    rng = random.Random(79)
    for _ in range(300):
        h = rand_handlebody(rng, with_fronts=rng.random() < 0.5)
        if rng.random() < 0.5:
            h = boundary_sum(h, mazur_cork_template(1, 2, 1))
        count = rng.randint(0, 5)
        want = h
        for _ in range(count):
            want = _canceling_pair_by_hand(want)
        out = attach_canceling_pairs(h, count)
        assert render_handlebody(out) == render_handlebody(want)
        assert out.cert_tags == want.cert_tags
        assert out == want


# ---------------------------------------------------------------------------
# sums


def test_sum_with_ball_is_identity():
    h = handlebody(1, [((1, 1), 2)])
    out = boundary_sum(h, empty_handlebody())
    assert homology(out).h1 == homology(h).h1
    assert homology(out).h2_rank == homology(h).h2_rank


def test_two_s2xd2_sum_form():
    out = boundary_sum(S2XD2, S2XD2)
    assert homology(out).intersection_form.equals(IntMatrix(((0, 0), (0, 0))))


def test_b2_additivity():
    rng = random.Random(12)
    for _ in range(15):
        h1 = rand_handlebody(rng)
        h2 = rand_handlebody(rng)
        for op in (boundary_sum, connected_sum_model):
            assert (homology(op(h1, h2)).h2_rank
                    == homology(h1).h2_rank + homology(h2).h2_rank)


def test_sum_forms_are_block_diagonal_up_to_basis():
    # the sum's kernel basis differs from the stacked summand bases by a
    # unimodular change T, and the form transports exactly along T
    from kirbycalc.intmat import block_diag, is_unimodular, solve_integer

    rng = random.Random(13)
    for _ in range(10):
        h1 = rand_handlebody(rng)
        h2 = rand_handlebody(rng)
        p1, p2 = homology(h1), homology(h2)
        psum = homology(boundary_sum(h1, h2))
        block_basis = block_diag(p1.h2_basis, p2.h2_basis)
        cols = []
        for j in range(psum.h2_rank):
            t = solve_integer(block_basis, psum.h2_basis.column(j))
            assert t is not None  # same saturated lattice
            cols.append(t)
        t_mat = IntMatrix.from_rows(
            [[cols[j][i] for j in range(len(cols))]
             for i in range(block_basis.shape()[1])],
            cols=len(cols),
        )
        assert is_unimodular(t_mat)
        block_form = block_diag(p1.intersection_form, p2.intersection_form)
        assert t_mat.transpose().mul(block_form).mul(t_mat).equals(
            psum.intersection_form)


def test_intersection_form_always_symmetric():
    rng = random.Random(15)
    for _ in range(25):
        p = homology(rand_handlebody(rng))
        assert p.intersection_form.is_symmetric()
        if p.h2_rank == 0:
            assert p.intersection_form.shape() == (0, 0)


# ---------------------------------------------------------------------------
# HIHC necessary conditions


def test_hihc_self_passes():
    rep = hihc_certificate(S2XD2, S2XD2)
    assert rep.passed and rep.verdict == "PASS"


def test_hihc_detects_form_mismatch():
    other = handlebody(0, [((), 1)])
    rep = hihc_certificate(S2XD2, other)
    assert not rep.passed
    failing = {name for name, ok, _ in rep.checks if not ok}
    assert "intersection-forms-isometric" in failing


def test_hihc_passes_after_w_move():
    rng = random.Random(19)
    for _ in range(10):
        h = rand_handlebody(rng, min_n=1)
        out = w_minus(h, rng.randrange(h.n), rng.randint(1, 3))
        assert hihc_certificate(h, out).passed


def test_profiles_isomorphic_agrees_with_hihc_certificate():
    hyperbolic = handlebody(0, [((), 0), ((), 0)], IntMatrix(((0, 1), (1, 0))))
    one_check_fails = [
        (hyperbolic, handlebody(0, [((), 1), ((), -1)]),
         "intersection-forms-isometric"),
        (handlebody(1, [((1, 1), 0)]), handlebody(1, [((1, 1), 1)]),
         "boundary-h1-groups-equal"),
    ]
    for h, g, name in one_check_fails:
        rep = hihc_certificate(h, g)
        assert [n for n, ok, _ in rep.checks if not ok] == [name]
        assert not profiles_isomorphic(homology(h), homology(g))
    rng = random.Random(23)
    outcomes = set()
    for _ in range(20):
        h = rand_handlebody(rng, min_n=1)
        for g in (w_minus(h, rng.randrange(h.n), 1), rand_handlebody(rng)):
            ok = profiles_isomorphic(homology(h), homology(g), bound=1)
            assert ok == hihc_certificate(h, g, bound=1).passed
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_hihc_checks_refuse_bound_zero():
    with pytest.raises(PreconditionError, match="bound"):
        hihc_certificate(S2XD2, S2XD2, bound=0)
    with pytest.raises(PreconditionError, match="bound"):
        profiles_isomorphic(homology(S2XD2), homology(S2XD2), bound=0)


def test_rank_mismatched_profiles_follow_the_one_bound_rule():
    empty = empty_handlebody()
    for bound in (0, -3):
        with pytest.raises(PreconditionError) as err:
            hihc_certificate(S2XD2, empty, bound=bound)
        assert str(err.value) == "bound must be at least 1"
        with pytest.raises(PreconditionError, match="bound must be at least 1"):
            profiles_isomorphic(homology(empty), homology(S2XD2), bound=bound)
    checks = {n: (ok, d) for n, ok, d in
              hihc_certificate(S2XD2, empty, bound=1).checks}
    assert checks["intersection-forms-isometric"] == (False, "rank mismatch")


def test_two_handle_word_must_be_integral():
    assert handlebody(1, [((1,), 0)]).two_handles[0].word == (1,)
    with pytest.raises(TypeError):
        handlebody(1, [((1.9,), 0)])


def test_one_handle_count_must_be_integral():
    with pytest.raises(TypeError):
        handlebody(1.0)


def test_attached_words_must_be_integral():
    h = handlebody(1)
    assert attach_two_handles_zero_framed(h, [(1,)]).two_handles[0].word == (1,)
    with pytest.raises(TypeError):
        attach_two_handles_zero_framed(h, [(1.0,)])


def test_two_handle_framing_must_be_integral():
    assert handlebody(0, [((), 2)]).two_handles[0].framing == 2
    with pytest.raises(TypeError):
        handlebody(0, [TwoHandle((), 2.0)], IntMatrix(((2,),)))
    with pytest.raises(TypeError):
        TwoHandle((), "2")

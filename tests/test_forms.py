import itertools
import random
import time

import pytest

from kirbycalc.errors import (
    CapacityError,
    DimensionError,
    PreconditionError,
)
from kirbycalc.forms import (
    SEARCH_CANDIDATE_LIMIT,
    SEARCH_RANK_LIMIT,
    ModuleHom,
    algebraically_equivalent,
    canonical_key,
    check_g_preservation,
    decorated_module,
    enumerate_isometries,
    identity_hom,
    iter_isometries,
    module_hom,
    negation_hom,
    preserves_form,
    split_module,
    split_preserving_g_on_a,
    split_preserving_g_on_b,
    split_projection,
)
from kirbycalc.intmat import IntMatrix

from .gens import rand_decorated, rand_split_instance, equivalent_copy

Z_RANK1 = decorated_module((0,), IntMatrix(((1,),)))


def test_preserves_form_identity_and_negation():
    d = decorated_module((0, 0), IntMatrix(((1, 0), (0, -2))))
    assert preserves_form(identity_hom(d))
    assert preserves_form(negation_hom(d))


def test_preserves_form_doubling_fails():
    phi = module_hom(Z_RANK1, Z_RANK1, IntMatrix(((2,),)))
    assert not preserves_form(phi)


def test_preserves_form_dimension_mismatch():
    d2 = decorated_module((0, 0), IntMatrix(((1, 0), (0, 1))))
    bad = ModuleHom(domain=Z_RANK1, codomain=d2, matrix=IntMatrix(((1,),)))
    with pytest.raises(DimensionError):
        preserves_form(bad)


def test_negation_is_always_an_isometry():
    rng = random.Random(3)
    for _ in range(25):
        d = rand_decorated(rng, rank=rng.randint(0, 2),
                           torsion=rng.random() < 0.5)
        assert preserves_form(negation_hom(d))


# ---------------------------------------------------------------------------
# projection of split isomorphisms


def _simple_split(qa, b_rank=1):
    a = decorated_module((0,) * qa.rows, qa)
    b = decorated_module((0,) * b_rank)
    return split_module(a, b)


def test_split_projection_identity():
    s = _simple_split(IntMatrix(((1,),)))
    phi = identity_hom(s.total)
    ha, hb = split_projection(phi, s, s)
    assert ha.matrix.equals(IntMatrix.identity(1))
    assert hb.matrix.equals(IntMatrix.identity(1))


def test_split_projection_shear():
    # phi(a) = a + b, phi(b) = b on A = Z with Q_A = [2], B = Z
    s = _simple_split(IntMatrix(((2,),)))
    phi = module_hom(s.total, s.total, IntMatrix(((1, 0), (1, 1))))
    ha, hb = split_projection(phi, s, s)
    assert ha.matrix.equals(IntMatrix.identity(1))
    assert hb.matrix.equals(IntMatrix.identity(1))


def test_split_projection_random_oracle():
    rng = random.Random(17)
    for _ in range(60):
        slot = rng.choice((None, "a", "b"))
        inst = rand_split_instance(rng, torsion_slot=slot)
        ha, hb = split_projection(inst.phi, inst.split, inst.split)
        assert ha.is_isomorphism() and preserves_form(ha)
        assert hb.is_isomorphism() and preserves_form(hb)


def test_split_projection_rejects_double_torsion():
    a = decorated_module((0, 2), IntMatrix(((1, 0), (0, 0))))
    b = decorated_module((2,))
    s = split_module(a, b)
    phi = identity_hom(s.total)
    with pytest.raises(PreconditionError):
        split_projection(phi, s, s)


def test_split_projection_rejects_non_isometry():
    s = _simple_split(IntMatrix(((1,),)))
    phi = module_hom(s.total, s.total, IntMatrix(((2, 0), (0, 1))))
    with pytest.raises(PreconditionError):
        split_projection(phi, s, s)


# ---------------------------------------------------------------------------
# value-preserving projections


def test_g_on_b_identity():
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
    a = decorated_module((0,), IntMatrix(((1,),)))
    b = decorated_module((0,))
    s = split_module(a, b, table)
    rep = split_preserving_g_on_b(identity_hom(s.total), s, s)
    assert rep.hom.matrix.equals(IntMatrix.identity(1))
    assert (0, 1) in rep.verified


def test_g_on_b_negation():
    # b -> -b preserves any symmetric table
    table = {(0, 1): 3, (0, -1): 3, (0, 0): 0, (1, 0): 1}
    a = decorated_module((0,), IntMatrix(((1,),)))
    b = decorated_module((0,))
    s = split_module(a, b, table)
    phi = module_hom(s.total, s.total, IntMatrix(((1, 0), (0, -1))))
    rep = split_preserving_g_on_b(phi, s, s)
    assert rep.hom.matrix.equals(IntMatrix(((-1,),)))
    assert (0, 1) in rep.verified and (0, -1) in rep.verified


def test_g_on_b_coordinate_table():
    # G(b) = |b| on a two-generator B, swapped by phi
    a = decorated_module((0,), IntMatrix(((1,),)))
    b = decorated_module((0, 0))
    table = {(0, i, j): abs(i) + abs(j)
             for i in range(-2, 3) for j in range(-2, 3)}
    s = split_module(a, b, table)
    phi = module_hom(s.total, s.total,
                     IntMatrix(((1, 0, 0), (0, 0, 1), (0, 1, 0))))
    rep = split_preserving_g_on_b(phi, s, s)
    assert len(rep.verified) == 25
    assert not rep.unverified


def test_g_on_a_identity():
    table = {(0, 0): 0, (1, 0): 2, (1, 1): 3}
    a = decorated_module((0,), IntMatrix(((1,),)))
    s = split_module(a, decorated_module((0,)), table)
    rep = split_preserving_g_on_a(identity_hom(s.total), s, s)
    assert rep.hom.matrix.equals(IntMatrix.identity(1))
    assert (1, 0) in rep.verified


def test_g_on_a_monotone_penalty_instances():
    rng = random.Random(23)
    for _ in range(40):
        slot = rng.choice((None, "a", "b"))
        inst = rand_split_instance(rng, torsion_slot=slot, with_g=True)
        rep = split_preserving_g_on_a(inst.phi, inst.split, inst.split)
        # every queried A-class must be verified, none unverified
        assert not rep.unverified
        table = inst.split.total.gvalues
        for key in table:
            if inst.split.lies_in_a(key):
                img = rep.hom.apply(inst.split.a_coords(key))
                assert table[inst.split.embed_a(img)] == table[key]


def test_g_on_a_monotonicity_violation_rejected():
    a = decorated_module((0,), IntMatrix(((1,),)))
    table = {(0, 0): 0, (1, 0): 5, (1, 1): 2}  # G(a) > G(a+b)
    s = split_module(a, decorated_module((0,)), table)
    with pytest.raises(PreconditionError, match="monotonicity"):
        split_preserving_g_on_a(identity_hom(s.total), s, s)


def test_g_on_a_torsion_chain_replay():
    """Torsion case: the proof's descending chain closes up after two
    steps since the torsion class has order 2."""
    # A = Z (+) Z/2 with Q_A = [1] on the free part, B = Z torsion-free
    a = decorated_module((0, 2), IntMatrix(((1, 0), (0, 0))))
    b = decorated_module((0,))
    table = {}
    for af in range(-2, 3):
        for t in range(2):
            for bf in range(-2, 3):
                table[(af, t, bf)] = abs(af)
    s = split_module(a, b, table)
    # phi: a -> a + b, t -> t, b -> b + t
    phi = module_hom(s.total, s.total,
                     IntMatrix(((1, 0, 0), (0, 1, 1), (1, 0, 1))))
    rep = split_preserving_g_on_a(phi, s, s)
    a_key = (1, 0, 0)
    a_hat = rep.hom.apply((1, 0))
    # replay the chain G(a) >= G(a_hat) >= G(a - t) >= G(a - 2t) = G(a)
    chain = [
        table[a_key],
        table[s.embed_a(a_hat)],
        table[s.total.key((1, -1, 0))],
        table[s.total.key((1, -2, 0))],
    ]
    assert chain[0] >= chain[1] >= chain[2]
    assert chain[3] == chain[0]  # stabilized: order-2 torsion closes the loop
    assert all(x == chain[0] for x in chain)


# ---------------------------------------------------------------------------
# bounded isometry enumeration


def test_enumerate_rank_one():
    isos = enumerate_isometries(Z_RANK1, Z_RANK1, 1)
    assert [h.matrix.entries for h in isos] == [((-1,),), ((1,),)]


def test_enumerate_no_isometry_between_1_and_2():
    d2 = decorated_module((0,), IntMatrix(((2,),)))
    assert enumerate_isometries(Z_RANK1, d2, 3) == []


def test_enumerate_hyperbolic_matches_bruteforce_oracle():
    q = IntMatrix(((0, 1), (1, 0)))
    d = decorated_module((0, 0), q)
    # oracle: all 3^4 integer matrices with entries in {-1, 0, 1}
    expected = []
    for flat in itertools.product((-1, 0, 1), repeat=4):
        t = IntMatrix((flat[:2], flat[2:]))
        if t.transpose().mul(q).mul(t).equals(q):
            expected.append(t.entries)
    found = [h.matrix.entries for h in enumerate_isometries(d, d, 1)]
    assert sorted(found) == sorted(expected)
    assert len(found) == 4


def test_enumerate_matches_naive_enumeration():
    # oracle: filter every matrix with entries in [-1, 1], no pruning
    rng = random.Random(61)
    for _ in range(12):
        d1 = rand_decorated(rng, rank=rng.randint(1, 2), max_entry=2,
                            torsion=rng.random() < 0.4)
        d2 = equivalent_copy(rng, d1)
        n1, n2 = d1.ngens, d2.ngens
        expected = set()
        for flat in itertools.product((-1, 0, 1), repeat=n1 * n2):
            mat = IntMatrix.from_rows(
                [flat[i * n1:(i + 1) * n1] for i in range(n2)], cols=n1
            )
            try:
                hom = module_hom(d1, d2, mat)
            except PreconditionError:
                continue
            if preserves_form(hom) and hom.is_isomorphism():
                expected.add(hom.matrix.entries)
        found = {h.matrix.entries for h in enumerate_isometries(d1, d2, 1)}
        assert found == expected


def test_enumerate_capacity_guard():
    d = decorated_module((0,) * 5, IntMatrix.zeros(5, 5))
    with pytest.raises(CapacityError, match=f"at most {SEARCH_RANK_LIMIT} generators, got 5"):
        enumerate_isometries(d, d, 1)


def test_candidate_size_guard_raises_before_allocating():
    d = decorated_module((0,) * 4, IntMatrix.identity(4))
    start = time.perf_counter()
    with pytest.raises(CapacityError) as err:
        next(iter_isometries(d, d, 50))
    assert time.perf_counter() - start < 1.0
    assert str(101 ** 4) in str(err.value)
    assert str(SEARCH_CANDIDATE_LIMIT) in str(err.value)


HYPERBOLIC_PAIR = IntMatrix(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))


@pytest.mark.parametrize("form, bound, count", [
    (IntMatrix.identity(4), 2, 384),
    (HYPERBOLIC_PAIR, 1, 800),
    (HYPERBOLIC_PAIR, 2, 3360),
])
def test_enumerate_pinned_counts(form, bound, count):
    d = decorated_module((0,) * 4, form)
    assert len(enumerate_isometries(d, d, bound)) == count


def _plain_scan(d1, d2, bound):
    """Reference search: every candidate column in L1-then-lexicographic
    order, each Gram constraint as a double sum, every leaf deduplicated
    and tested with is_isomorphism."""
    q1, q2 = d1.form.entries, d2.form.entries
    n1, n2 = d1.ngens, d2.ngens

    def gram(v, w):
        return sum(v[a] * q2[a][b] * w[b] for a in range(n2) for b in range(n2))

    def fits(vec, order):
        return all(order * x == 0 if u == 0 else (order * x) % u == 0
                   for x, u in zip(vec, d2.orders))

    box = sorted(itertools.product(range(-bound, bound + 1), repeat=n2),
                 key=lambda v: (sum(map(abs, v)), v))
    out, seen = [], set()

    def walk(cols):
        j = len(cols)
        if j == n1:
            hom = module_hom(d1, d2, IntMatrix.from_rows(
                [[c[r] for c in cols] for r in range(n2)], cols=n1))
            if hom.matrix.entries not in seen:
                seen.add(hom.matrix.entries)
                if hom.is_isomorphism():
                    out.append(hom.matrix.entries)
            return
        for c in box:
            if (d1.orders[j] == 0 or fits(c, d1.orders[j])) and all(
                    gram(c, cols[i]) == q1[j][i] for i in range(j)) \
                    and gram(c, c) == q1[j][j]:
                walk(cols + [c])

    walk([])
    return out


def test_search_order_matches_plain_scan():
    rng = random.Random(73)
    for _ in range(25):
        d1 = rand_decorated(rng, rank=rng.randint(1, 3), max_entry=2,
                            torsion=rng.random() < 0.4)
        d2 = equivalent_copy(rng, d1) if rng.random() < 0.7 else rand_decorated(
            rng, rank=d1.free_rank, max_entry=2, torsion=rng.random() < 0.4)
        bound = 2 if d1.ngens <= 2 else 1
        found = [h.matrix.entries for h in iter_isometries(d1, d2, bound)]
        assert found == _plain_scan(d1, d2, bound)


def _unpruned_equivalence(d1, d2, bound):
    """algebraically_equivalent without value pruning: scan every
    isometry in search order and filter with check_g_preservation."""
    undecided = []
    for hom in iter_isometries(d1, d2, bound):
        mism, missing = check_g_preservation(hom)
        if mism:
            continue
        if missing:
            undecided.append((hom.matrix.entries, missing))
            continue
        return hom.matrix.entries, ()
    return None, tuple(undecided)


def _thinned(rng, d, keep=0.7, flips=0):
    """d with a random part of its table dropped and a few values changed."""
    table = {k: v for k, v in d.gvalues.items() if rng.random() < keep}
    for key in rng.sample(sorted(table), min(flips, len(table))):
        table[key] = rng.randint(4, 6)
    return decorated_module(d.orders, d.form, table)


def test_value_pruning_matches_unpruned_reference():
    rng = random.Random(89)
    outcomes = set()
    for _ in range(60):
        rank = rng.randint(2, 3)
        torsion = rng.random() < 0.4
        bound = rng.randint(1, 2) if rank + torsion <= 3 else 1
        d1 = rand_decorated(rng, rank=rank, max_entry=2, radius=1,
                            torsion=torsion)
        d2 = equivalent_copy(rng, d1) if rng.random() < 0.7 else rand_decorated(
            rng, rank=rank, max_entry=2, radius=1, torsion=torsion)
        d1 = _thinned(rng, d1, keep=rng.choice((1.0, 0.8)))
        d2 = _thinned(rng, d2, keep=rng.choice((1.0, 0.7)),
                      flips=rng.choice((0, 0, 1)))
        res = algebraically_equivalent(d1, d2, bound)
        got = (res.witness.matrix.entries if res.witness else None, res.undecided)
        assert got == _unpruned_equivalence(d1, d2, bound)
        outcomes.add((res.equivalent, bool(res.undecided)))
    # the sample covers witnesses, undecided candidates and plain misses
    assert {(True, False), (False, True), (False, False)} <= outcomes


def test_zero_class_mismatch_ends_the_search():
    d1 = decorated_module((0,), IntMatrix(((1,),)), {(0,): 0, (1,): 0})
    d2 = decorated_module((0,), IntMatrix(((1,),)), {(0,): 1, (1,): 0})
    assert list(iter_isometries(d1, d2, 1, match_values=True)) == []
    assert len(list(iter_isometries(d1, d2, 1))) == 2
    assert not algebraically_equivalent(d1, d2, 1).equivalent


def test_torsion_isometries_are_deduplicated():
    d = decorated_module((2,), IntMatrix(((0,),)))
    isos = enumerate_isometries(d, d, 1)
    # 1 and -1 agree mod 2: only the identity survives
    assert [h.matrix.entries for h in isos] == [((1,),)]


# ---------------------------------------------------------------------------
# algebraic equivalence


def test_equivalent_to_self():
    d = decorated_module((0,), IntMatrix(((1,),)), {(1,): 0, (-1,): 0, (0,): 0})
    r = algebraically_equivalent(d, d, 1)
    assert r.equivalent
    assert r.witness is not None


def test_not_within_bound_on_value_mismatch():
    d1 = decorated_module((0,), IntMatrix(((0,),)), {(1,): 0})
    d2 = decorated_module((0,), IntMatrix(((0,),)), {(1,): 5})
    r = algebraically_equivalent(d1, d2, 3)
    assert not r.equivalent


def test_negation_witness():
    d1 = decorated_module((0,), IntMatrix(((1,),)), {(1,): 0})
    d2 = decorated_module((0,), IntMatrix(((1,),)), {(-1,): 0, (1,): 0})
    r = algebraically_equivalent(d1, d2, 1)
    assert r.equivalent


def test_equivalence_is_symmetric_on_closed_tables():
    rng = random.Random(41)
    for _ in range(20):
        d1 = rand_decorated(rng, rank=rng.randint(1, 2),
                            torsion=rng.random() < 0.3)
        if rng.random() < 0.5:
            d2 = equivalent_copy(rng, d1)
        else:
            d2 = rand_decorated(rng, rank=d1.free_rank,
                                torsion=bool(d1.torsion_indices))
        for bound in (1, 2):
            fwd = algebraically_equivalent(d1, d2, bound)
            bwd = algebraically_equivalent(d2, d1, bound)
            assert fwd.equivalent == bwd.equivalent


def test_coefficient_vectors_must_be_integral():
    d = decorated_module((0, 2), IntMatrix(((1, 0), (0, 0))), {(1, 1): 2})
    assert d.value((1, 3)) == 2
    for bad in ((1.7, 1), (1, 1.0), ("1", 1)):
        with pytest.raises(TypeError):
            d.value(bad)
        with pytest.raises(TypeError):
            canonical_key((0, 2), bad)
    with pytest.raises(TypeError):
        decorated_module((0,), None, {(1.5,): 0})

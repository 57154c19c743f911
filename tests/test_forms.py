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
    _norm_buckets,
    identity_hom,
    isometry_exists,
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
    # one or two torsion generators of orders 2, 3 and 4, at most three
    # generators in all
    rng = random.Random(1313)
    yielded = 0
    for _ in range(60):
        torsion = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
        orders = [0] * rng.randint(0, 3 - len(torsion)) + torsion
        rng.shuffle(orders)
        d1 = _rand_codomain(rng, tuple(orders))
        if rng.random() < 0.7:
            d2 = equivalent_copy(rng, d1)
        else:
            d2 = _rand_codomain(rng, tuple(rng.choice((0, 2, 3, 4))
                                           for _ in orders))
        bound = 2 if len(orders) <= 2 else 1
        found = [h.matrix.entries for h in iter_isometries(d1, d2, bound)]
        assert found == _plain_scan(d1, d2, bound), (d1.orders, d2.orders)
        yielded += len(found)
    assert yielded > 500


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


def _reference_g_check(phi):
    """check_g_preservation as it read every key: through phi.apply, which
    reduces the domain key and the image."""
    mism, undecided = [], []
    table2 = phi.codomain.gvalues
    for key, val in sorted(phi.domain.gvalues.items()):
        img = phi.apply(key)
        if img not in table2:
            undecided.append(key)
        elif table2[img] != val:
            mism.append((key, table2[img], val))
    return tuple(mism), tuple(undecided)


def test_g_check_matches_a_reference_through_phi_apply():
    rng = random.Random(1509)
    homs = mismatched = undecided = 0
    for _ in range(80):
        if rng.random() < 0.5:
            d1 = rand_decorated(rng, rank=rng.randint(1, 2), max_entry=2,
                                radius=1, torsion=rng.random() < 0.5)
        else:
            torsion = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
            orders = [0] * rng.randint(0, 3 - len(torsion)) + torsion
            rng.shuffle(orders)
            d1 = _rand_codomain(rng, tuple(orders))
            d1 = decorated_module(d1.orders, d1.form, {
                canonical_key(d1.orders, [rng.randint(-2, 2) for _ in orders]):
                rng.randint(0, 2) for _ in range(12)})
        d2 = equivalent_copy(rng, d1)
        d1 = _thinned(rng, d1, keep=rng.choice((1.0, 0.8)))
        d2 = _thinned(rng, d2, keep=rng.choice((1.0, 0.7)),
                      flips=rng.choice((0, 1, 2)))
        bound = 2 if d1.ngens <= 2 else 1
        for hom in itertools.islice(iter_isometries(d1, d2, bound), 20):
            got = check_g_preservation(hom)
            assert got == _reference_g_check(hom), (d1, d2, hom.matrix)
            homs += 1
            mismatched += bool(got[0])
            undecided += bool(got[1])
    # the sample covers non-empty mismatch and undecided lists
    assert homs > 500 and mismatched > 200 and undecided > 200, (
        homs, mismatched, undecided)


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


def test_search_homs_match_module_hom_on_torsion():
    """Every hom the search yields is the reduced module_hom of its own
    matrix; with Z/2 generators a candidate -1 must come out as 1."""
    rng = random.Random(1905)
    homs = reduced = 0
    for _ in range(40):
        d1 = rand_decorated(rng, rank=rng.randint(1, 2), radius=1, torsion=True)
        d2 = equivalent_copy(rng, d1) if rng.random() < 0.7 else rand_decorated(
            rng, rank=d1.free_rank, radius=1, torsion=True)
        bound = rng.randint(1, 2)
        for match_values in (False, True):
            for hom in iter_isometries(d1, d2, bound, match_values=match_values):
                assert hom == module_hom(d1, d2, hom.matrix)
                assert all(type(row) is tuple and all(type(x) is int for x in row)
                           for row in hom.matrix.entries)
                homs += 1
                reduced += any(hom.matrix[i, j] == 1 for i in d2.torsion_indices
                               for j in range(d1.ngens))
    assert homs > 200 and reduced == homs, (homs, reduced)


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


def test_generator_orders_must_be_integral():
    assert decorated_module((2,)).orders == (2,)
    with pytest.raises(TypeError):
        decorated_module((2.5,))


def _reference_buckets(codomain, bound, order):
    """Reference candidate buckets: a filtered scan of the whole box, kept
    only where each torsion coordinate is the first of its residue class
    in (|x|, x) order, an L1-then-lexicographic sort and a hand-written
    c^T Q."""
    span = range(-bound, bound + 1)
    out = []
    for vec in itertools.product(span, repeat=codomain.ngens):
        if order != 0:
            ok = True
            for x, u in zip(vec, codomain.orders):
                prod = order * x
                if (u == 0 and prod != 0) or (u != 0 and prod % u != 0):
                    ok = False
                    break
            if not ok:
                continue
        if any(u != 0 and (y - x) % u == 0 and (abs(y), y) < (abs(x), x)
               for x, u in zip(vec, codomain.orders) for y in span):
            continue
        out.append(vec)
    out.sort(key=lambda v: (sum(abs(x) for x in v), v))
    q = codomain.form.entries
    n = codomain.ngens
    buckets = {}
    for c in out:
        cq = tuple(sum(c[i] * q[i][k] for i in range(n)) for k in range(n))
        buckets.setdefault(sum(x * y for x, y in zip(cq, c)), []).append((c, cq))
    return buckets


def _rand_codomain(rng, orders=None):
    """A module of the given generator orders (1-4 random ones from
    {0, 2, 3, 4} by default) with a random form on its free part."""
    if orders is None:
        orders = tuple(rng.choice((0, 2, 3, 4))
                       for _ in range(rng.randint(1, 4)))
    n = len(orders)
    rows = [[0] * n for _ in range(n)]
    free = [i for i, t in enumerate(orders) if t == 0]
    for a in free:
        for b in free:
            if a <= b:
                rows[a][b] = rows[b][a] = rng.randint(-3, 3)
    return decorated_module(orders, IntMatrix.from_rows(rows, cols=n))


def test_norm_buckets_match_the_filtered_scan():
    rng = random.Random(1207)
    for _ in range(60):
        d = _rand_codomain(rng)
        for bound in (1, 2):
            for order in (0, 2, 3, 4, 6):
                want = _reference_buckets(d, bound, order)
                got = _norm_buckets(d, bound, order, set(want))
                assert list(got.items()) == list(want.items()), (
                    d.orders, d.form.entries, bound, order)
                norms = set(rng.sample(sorted(want), rng.randrange(len(want))))
                got = _norm_buckets(d, bound, order, norms)
                assert list(got.items()) == [
                    (k, v) for k, v in want.items() if k in norms], (
                    d.orders, d.form.entries, bound, order, norms)


def test_module_hom_error_messages():
    z, z2, z4 = (decorated_module(o) for o in ((0,), (2,), (4,)))
    with pytest.raises(PreconditionError) as err:
        module_hom(z2, z, IntMatrix(((1,),)))
    assert str(err.value) == (
        "generator 0 of order 2 maps outside its order (free coordinate 0)")
    with pytest.raises(PreconditionError) as err:
        module_hom(decorated_module((0, 2)), decorated_module((0, 4)),
                   IntMatrix(((0, 0), (1, 3))))
    assert str(err.value) == (
        "generator 1 of order 2 maps to an element whose coordinate 1 "
        "is not annihilated mod 4")
    assert module_hom(z2, z4, IntMatrix(((6,),))).matrix.entries == ((2,),)


def test_isometry_exists_is_none_on_a_signature_mismatch():
    # both of det 1 and odd, so only the signature tells them apart
    plus, minus = IntMatrix.from_diagonal((1, 1)), IntMatrix.from_diagonal((-1, -1))
    assert isometry_exists(plus, minus, 2) is None


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_isometry_exists_is_none_when_the_bounded_search_finds_nothing(bound):
    # det -3, signature (1, 1, 0) and odd on both sides, so every fast path
    # passes; the forms are isometric, but only by matrices with an entry
    # of size 4 or more
    q1 = IntMatrix(((2, 1), (1, -1)))
    q2 = IntMatrix(((2, 9), (9, 39)))
    assert isometry_exists(q1, q2, bound) is None


@pytest.mark.parametrize("q1, q2", [
    (IntMatrix(((1, 0), (0, 1))),) * 2,
    (IntMatrix(((2, 1), (1, 2))), IntMatrix(((2, -1), (-1, 2)))),
    (IntMatrix.zeros(2, 2),) * 2,
    (IntMatrix(((1,),)), IntMatrix(((2,),))),
])
@pytest.mark.parametrize("bound", [0, -5])
def test_isometry_exists_refuses_a_bound_below_one(q1, q2, bound):
    with pytest.raises(PreconditionError, match="bound must be at least 1"):
        isometry_exists(q1, q2, bound)

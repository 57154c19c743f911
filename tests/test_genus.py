import random

import pytest

from kirbycalc.errors import CapacityError, PreconditionError
from kirbycalc.genus import (
    a_g,
    char_class_instance,
    disk_bundle_table,
    identity_disk_bundle_table,
    kervaire_milnor_obstruction,
    lower_bound_check,
    sum_model,
    sum_stability_check,
    TORSION_ENUMERATION_LIMIT,
    torsion_free_reduce,
)
from kirbycalc.forms import decorated_module
from kirbycalc.intmat import IntMatrix
from kirbycalc.values import POS_INF, OrderedValue

from .gens import (
    box_keys,
    equivalent_copy,
    rand_decorated,
    rand_symmetric,
    rand_unimodular,
)

IDENTITY_TABLE = identity_disk_bundle_table(10)


def test_ag_identity_table():
    for r in range(11):
        got = a_g(r, 0, IDENTITY_TABLE)
        assert got.value == OrderedValue.of(r) and not got.capped
    assert a_g(-1, 0, IDENTITY_TABLE).value == OrderedValue.of(0)
    over = a_g(11, 0, IDENTITY_TABLE)
    assert over.value == POS_INF and over.capped


def test_ag_strict_gap_case():
    t = disk_bundle_table({(0, 0): 0, (1, 0): 2, (2, 0): 4})
    assert a_g(1, 0, t).value == OrderedValue.of(1)   # between 0 and 2
    assert a_g(3, 0, t).value == OrderedValue.of(2)   # between 2 and 4
    assert a_g(2, 0, t).value == OrderedValue.of(1)   # attained at g = 1
    assert a_g(4, 0, t).value == OrderedValue.of(2)


def test_ag_plateau_takes_minimum():
    t = disk_bundle_table({(0, 0): 1, (1, 0): 1, (2, 0): 3})
    assert a_g(1, 0, t).value == OrderedValue.of(0)


def test_ag_monotone_in_r():
    t = disk_bundle_table({(g, 0): 2 * g for g in range(6)})
    previous = None
    for r in range(-2, 14):
        got = a_g(r, 0, t).value
        if previous is not None:
            assert previous <= got
        previous = got


def test_ag_outside_coverage():
    with pytest.raises(PreconditionError):
        a_g(1, 99, IDENTITY_TABLE)


def test_table_validation():
    with pytest.raises(PreconditionError):
        disk_bundle_table({(0, 0): 3, (1, 0): 1})  # not monotone
    with pytest.raises(PreconditionError):
        disk_bundle_table({(1, 0): 0})  # gap at g = 0


def test_lower_bound_and_checker():
    bound = a_g(2, 0, IDENTITY_TABLE)
    assert bound.value == OrderedValue.of(2)
    ok, _ = lower_bound_check(3, 2, 0, IDENTITY_TABLE)
    assert ok
    ok, _ = lower_bound_check(1, 2, 0, IDENTITY_TABLE)
    assert not ok
    # capped bound cannot certify a violation
    ok, got = lower_bound_check(0, 11, 0, IDENTITY_TABLE)
    assert ok and got.capped


# ---------------------------------------------------------------------------
# the mod-16 obstruction


def test_obstruction_fixture_two_reversed_planes():
    inst = char_class_instance(IntMatrix(((-1, 0), (0, -1))), (3, 1))
    assert inst.sigma == -2
    res = kervaire_milnor_obstruction(inst)
    assert res.residue == -8
    assert res.positive_genus_forced


def test_obstruction_unforced_fixtures():
    res = kervaire_milnor_obstruction(
        char_class_instance(IntMatrix(((1,),)), (1,)))
    assert res.residue == 0 and not res.positive_genus_forced
    res = kervaire_milnor_obstruction(
        char_class_instance(IntMatrix(((1, 0), (0, 1))), (1, 1)))
    assert res.residue == 0 and not res.positive_genus_forced


def test_non_characteristic_rejected():
    with pytest.raises(PreconditionError, match="characteristic"):
        char_class_instance(IntMatrix(((1, 0), (0, 1))), (1, 0))


def test_obstruction_invariant_under_base_change():
    rng = random.Random(91)
    count = 0
    while count < 20:
        n = rng.randint(1, 3)
        q = rand_symmetric(rng, n, 2)
        alpha = tuple(rng.randint(-2, 2) for _ in range(n))
        try:
            inst = char_class_instance(q, alpha)
        except PreconditionError:
            continue
        count += 1
        res = kervaire_milnor_obstruction(inst)
        w = rand_unimodular(rng, n)
        q2 = w.transpose().mul(q).mul(w)
        # alpha in the new basis: solve w * alpha2 = alpha
        from kirbycalc.intmat import solve_integer

        alpha2 = solve_integer(w, alpha)
        res2 = kervaire_milnor_obstruction(char_class_instance(q2, alpha2))
        assert res2.residue == res.residue


# ---------------------------------------------------------------------------
# torsion-free reduction


def test_reduce_torsion_free_is_identity():
    d = decorated_module((0,), IntMatrix(((1,),)), {(1,): 2, (0,): 0})
    red = torsion_free_reduce(d)
    assert red.module.gvalues == d.gvalues
    assert not red.partial


def test_reduce_takes_minimum_over_torsion():
    d = decorated_module((0, 2), IntMatrix(((1, 0), (0, 0))),
                         {(1, 0): 2, (1, 1): 0})
    red = torsion_free_reduce(d)
    assert red.module.gvalues[(1,)] == OrderedValue.of(0)
    assert not red.partial


def test_reduce_partial_on_missing_companions():
    d = decorated_module((0, 2), IntMatrix(((1, 0), (0, 0))),
                         {(1, 0): 2, (2, 0): 1})
    red = torsion_free_reduce(d)
    assert red.partial == {(1,), (2,)}


def test_reduce_idempotent():
    rng = random.Random(14)
    for _ in range(15):
        d = rand_decorated(rng, rank=rng.randint(1, 2),
                           torsion=rng.random() < 0.5)
        once = torsion_free_reduce(d)
        twice = torsion_free_reduce(once.module)
        assert twice.module.gvalues == once.module.gvalues
        assert not twice.partial


def test_reduce_requires_values():
    with pytest.raises(PreconditionError):
        torsion_free_reduce(decorated_module((0,), IntMatrix(((1,),))))


def test_reduce_names_the_torsion_size_and_the_limit():
    assert TORSION_ENUMERATION_LIMIT == 4096
    # Z/64 + Z/65: 4160 torsion companions of each free class
    d = decorated_module((0, 64, 65), IntMatrix(((1, 0, 0), (0, 0, 0), (0, 0, 0))),
                         {(1, 0, 0): 2})
    with pytest.raises(CapacityError) as exc:
        torsion_free_reduce(d)
    assert str(exc.value) == ("torsion group too large to enumerate: 4160 torsion "
                              "companions, above the limit of 4096")


# ---------------------------------------------------------------------------
# sum stability


def _zero_valued_z(rank):
    orders = (0,) * rank
    return decorated_module(orders, None,
                            {key: 0 for key in box_keys(orders, 2)})


def test_sum_h2zero_identical_pair():
    z = decorated_module(())
    d = rand_decorated(random.Random(1), rank=1)
    rep = sum_stability_check(d, d, z, z, "h2zero", 2)
    assert rep.before.equivalent and rep.after.equivalent
    assert rep.implication_ok


def test_sum_h2zero_requires_trivial_z():
    d = rand_decorated(random.Random(2), rank=1)
    z = _zero_valued_z(1)
    with pytest.raises(PreconditionError):
        sum_stability_check(d, d, z, z, "h2zero", 2)


def test_sum_nondegenerate_mode_checks_hypotheses():
    z = _zero_valued_z(1)
    degenerate = decorated_module((0,), IntMatrix(((0,),)), {(0,): 0})
    with pytest.raises(PreconditionError):
        sum_stability_check(degenerate, degenerate, z, z, "nondegenerate", 2)


def test_sum_model_extends_tables():
    d = decorated_module((0,), IntMatrix(((1,),)), {(1,): 2, (0,): 0})
    z = decorated_module((0,), None, {(0,): 0, (1,): 0, (-1,): 3})
    s = sum_model(d, z)
    assert s.gvalues[(1, 0)] == OrderedValue.of(2)
    assert s.gvalues[(1, 1)] == OrderedValue.of(2)   # pinned by the 0 value
    assert (1, -1) not in s.gvalues                  # value 3: not determined


def test_sum_stability_small_suites():
    rng = random.Random(63)
    z_triv = decorated_module(())
    for _ in range(20):
        d1 = rand_decorated(rng, rank=rng.randint(1, 2))
        d2 = (equivalent_copy(rng, d1) if rng.random() < 0.5
              else rand_decorated(rng, rank=d1.free_rank))
        rep = sum_stability_check(d1, d2, z_triv, z_triv, "h2zero", 2)
        assert rep.implication_ok
    for _ in range(10):
        d1 = rand_decorated(rng, rank=rng.randint(1, 2), nondegenerate=True)
        d2 = (equivalent_copy(rng, d1) if rng.random() < 0.5
              else rand_decorated(rng, rank=d1.free_rank, nondegenerate=True))
        z = _zero_valued_z(1)
        rep = sum_stability_check(d1, d2, z, z, "nondegenerate", 2)
        assert rep.implication_ok


def test_disk_bundle_keys_must_be_integral():
    for bad in ((1.0, 0), (0, 1.5)):
        with pytest.raises(TypeError):
            disk_bundle_table({(0, 0): 0, bad: 1})


def test_characteristic_class_must_be_integral():
    form = IntMatrix(((1,),))
    assert char_class_instance(form, (1,)).alpha == (1,)
    with pytest.raises(TypeError):
        char_class_instance(form, (1.0,))

import random

import pytest

from kirbycalc.cobordism import (
    AttachmentModel,
    Move,
    attach,
    cobordism_model,
    decomposes_as_direct_sum,
    genus_interval,
    hom_image,
    hom_is_injective,
    hom_kernel,
    interval_check,
    quasi_invertibility_certificate,
    stability_check_quasi,
    submodule,
    trivial_ends_model,
)
from kirbycalc import forms
from kirbycalc.errors import PreconditionError
from kirbycalc.forms import (
    algebraically_equivalent,
    compose,
    decorated_module,
    module_hom,
    stability_report,
)
from kirbycalc.genus import sum_model, sum_stability_check
from kirbycalc.intmat import FgAbelianGroup, IntMatrix, solve_integer, with_relations
from kirbycalc.values import NEG_INF, POS_INF, OrderedValue

from .gens import box_keys, equivalent_copy, rand_decorated


def _zero_module():
    return decorated_module(())


def _free(n, form_rows=None, gvalues=None):
    form = IntMatrix.from_rows(form_rows, cols=n) if form_rows else None
    return decorated_module((0,) * n, form, gvalues)


def _glue_zero(cob, x):
    return module_hom(cob.h2_m, x, IntMatrix.zeros(x.ngens, cob.h2_m.ngens))


# ---------------------------------------------------------------------------
# submodule machinery


def test_image_and_kernel_of_hom():
    p = _free(2)
    r = _free(1)
    pr = module_hom(p, r, IntMatrix(((1, 0),)))
    k = hom_kernel(pr)
    assert k.abstract_group() == FgAbelianGroup(1, ())
    assert k.membership((0, 3)) is not None
    assert k.membership((1, 0)) is None
    img = hom_image(pr)
    assert img.abstract_group() == FgAbelianGroup(1, ())


def test_kernel_with_torsion():
    p = decorated_module((0, 2))
    r = _free(1)
    pr = module_hom(p, r, IntMatrix(((1, 0),)))
    k = hom_kernel(pr)
    assert k.abstract_group() == FgAbelianGroup(0, (2,))


def test_injectivity_detection():
    p = _free(1)
    doubled = module_hom(p, p, IntMatrix(((2,),)))
    assert hom_is_injective(doubled)
    t = decorated_module((2,))
    killed = module_hom(t, t, IntMatrix(((0,),)))
    assert not hom_is_injective(killed)


def test_submodule_presentation_against_closure_oracle():
    # in a finite ambient group, enumerate the generated subgroup by
    # closing under addition and compare order and membership
    import itertools

    def closure(orders, gens):
        seen = {tuple(0 for _ in orders)}
        frontier = list(seen)
        while frontier:
            new = []
            for el in frontier:
                for g in gens:
                    nxt = tuple((e + x) % t for e, x, t in zip(el, g, orders))
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
            frontier = new
        return seen

    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(1, 3)
        orders = tuple(rng.choice((2, 3, 4, 6)) for _ in range(n))
        amb = decorated_module(orders)
        gens = [tuple(rng.randint(0, 7) for _ in range(n))
                for _ in range(rng.randint(0, 3))]
        sub = submodule(amb, gens)
        cl = closure(orders, [amb.key(g) for g in gens])
        assert sub.abstract_group().free_rank == 0
        assert sub.abstract_group().torsion_order == len(cl)
        for el in itertools.product(*[range(t) for t in orders]):
            beta = sub.membership(el)
            assert (beta is not None) == (el in cl)
            if beta is not None:
                assert sub.membership(sub.vector_of(beta)) == beta


def test_vector_of_inverts_membership_on_free_and_mixed_ambients():
    rng = random.Random(29)
    for orders in ((0,), (0, 0), (0, 0, 0), (0, 2), (0, 4), (0, 0, 2),
                   (0, 2, 4)):
        amb = decorated_module(orders)
        for _ in range(12):
            gens = [tuple(rng.randint(-4, 4) for _ in orders)
                    for _ in range(rng.randint(1, 3))]
            sub = submodule(amb, gens)
            for _ in range(6):
                key = tuple(rng.randrange(t) if t else rng.randint(-6, 6)
                            for t in sub.orders)
                vec = sub.vector_of(key)
                assert vec == amb.key(vec)
                assert sub.membership(vec) == key


def test_membership_matches_solving_the_presentation_afresh():
    # the reference factors [gens | relations] on every call
    rng = random.Random(61)
    hits = misses = 0
    for orders in ((0,), (0, 0), (0, 0, 0), (2,), (0, 2), (0, 4), (4, 2),
                   (0, 0, 4)):
        amb = decorated_module(orders)
        n = len(orders)
        for _ in range(10):
            gens = [tuple(rng.randint(-4, 4) for _ in orders)
                    for _ in range(rng.randint(0, 3))]
            sub = submodule(amb, gens)
            pres = with_relations(IntMatrix.from_rows(
                [[g[c] for g in sub.gens] for c in range(n)], cols=len(sub.gens)),
                orders)
            for _ in range(8):
                vec = tuple(rng.randint(-5, 5) for _ in orders)
                if rng.random() < 0.5:
                    coeffs = [rng.randint(-3, 3) for _ in sub.gens]
                    vec = tuple(sum(k * g[c] for k, g in zip(coeffs, sub.gens))
                                for c in range(n))
                sol = solve_integer(pres, vec)
                want = None if sol is None else sub.coords(sol[:len(sub.gens)])
                assert sub.membership(vec) == want
                hits += want is not None
                misses += want is None
    assert hits > 100 and misses > 100


def test_direct_sum_decomposition_check():
    p = _free(2)
    s1 = submodule(p, [(1, 0)])
    s2 = submodule(p, [(0, 1)])
    assert decomposes_as_direct_sum(p, s1, s2)
    s3 = submodule(p, [(1, 1)])
    assert decomposes_as_direct_sum(p, s1, s3)
    s4 = submodule(p, [(2, 0)])
    assert not decomposes_as_direct_sum(p, s4, s2)


# ---------------------------------------------------------------------------
# model construction and flags


def test_trivial_ends_model_flags():
    k = _free(1, gvalues={(0,): 0, (1,): 0, (-1,): 0})
    cob = trivial_ends_model(k)
    assert cob.strongly_quasi_invertible
    assert not cob.h2_surjective
    assert cob.k_part.abstract_group() == FgAbelianGroup(1, ())


def test_invertible_flag_requires_torsion_free():
    p = decorated_module((2,))
    zero = _zero_module()
    mp = module_hom(zero, p, IntMatrix.zeros(1, 0))
    pr = module_hom(p, zero, IntMatrix.zeros(0, 1))
    with pytest.raises(PreconditionError):
        cobordism_model(zero, p, zero, mp, pr, invertible=True)


def test_invertible_model_is_strongly_quasi_invertible():
    p = _free(1)
    zero = _zero_module()
    mp = module_hom(zero, p, IntMatrix.zeros(1, 0))
    pr = module_hom(p, zero, IntMatrix.zeros(0, 1))
    cob = cobordism_model(zero, p, zero, mp, pr, invertible=True)
    assert cob.strongly_quasi_invertible
    assert not cob.h2_p.group.torsion_divisors
    assert not cob.k_part.abstract_group().torsion_divisors


def test_strongly_quasi_needs_composite_isomorphism():
    # M = R = Z but the composite through P kills everything
    m = _free(1)
    p = _free(1)
    mp = module_hom(m, p, IntMatrix(((1,),)))
    pr = module_hom(p, m, IntMatrix(((0,),)))
    with pytest.raises(PreconditionError):
        cobordism_model(m, p, m, mp, pr, strongly_quasi_invertible=True)


def test_strongly_quasi_composite_iso_holds_on_product_like_model():
    m = _free(1)
    p = _free(2)
    mp = module_hom(m, p, IntMatrix(((1,), (0,))))
    pr = module_hom(p, m, IntMatrix(((1, 0),)))
    cob = cobordism_model(m, p, m, mp, pr, strongly_quasi_invertible=True)
    assert compose(cob.map_pr, cob.map_mp).is_isomorphism()
    assert cob.k_part.abstract_group() == FgAbelianGroup(1, ())


def test_h2_surjective_flag_checked():
    m = _free(1)
    p = _free(2)
    mp = module_hom(m, p, IntMatrix(((1,), (0,))))
    pr = module_hom(p, m, IntMatrix(((1, 0),)))
    with pytest.raises(PreconditionError):
        cobordism_model(m, p, m, mp, pr, h2_surjective=True)


# ---------------------------------------------------------------------------
# attach


def test_attach_h2_surjective_keeps_table():
    x = _free(1, [[1]], {(1,): 2, (0,): 0, (-1,): 2})
    cob = trivial_ends_model(_zero_module())
    assert cob.h2_surjective
    res = attach(AttachmentModel(x=x, cob=cob, glue=_glue_zero(cob, x)))
    assert res.module.orders == x.orders
    assert res.module.gvalues == x.gvalues
    assert res.k_orders == ()


def test_attach_ball_plus_free_kernel():
    x = _zero_module()
    k = _free(1, gvalues={(0,): 0, (1,): 0, (-1,): 0})
    cob = trivial_ends_model(k)
    res = attach(AttachmentModel(x=x, cob=cob, glue=_glue_zero(cob, x)))
    assert res.module.orders == (0,)
    assert res.module.form.equals(IntMatrix(((0,),)))


def test_attach_form_is_zero_on_k_summand():
    rng = random.Random(71)
    for _ in range(20):
        x = rand_decorated(rng, rank=rng.randint(0, 2))
        k = _free(rng.randint(1, 2))
        cob = trivial_ends_model(k)
        res = attach(AttachmentModel(x=x, cob=cob, glue=_glue_zero(cob, x)))
        form = res.module.form
        nx = res.x_gens
        for i in range(nx, form.rows):
            assert all(form[i, j] == 0 for j in range(form.rows))


def test_attach_decomposition_accounting():
    rng = random.Random(72)
    for _ in range(20):
        x = rand_decorated(rng, rank=rng.randint(0, 2),
                           torsion=rng.random() < 0.4)
        k_orders = (0,) * rng.randint(0, 2) + ((2,) if rng.random() < 0.3 else ())
        k = decorated_module(k_orders)
        cob = trivial_ends_model(k)
        res = attach(AttachmentModel(x=x, cob=cob, glue=_glue_zero(cob, x)))
        assert res.module.group == x.group.direct_sum(k.group)


def test_attach_refuses_without_sufficient_condition():
    # degenerate form, torsion, nonzero glue, not strongly quasi-invertible
    m = _free(1)
    p = _free(2)
    mp = module_hom(m, p, IntMatrix(((1,), (0,))))
    pr = module_hom(p, _free(2), IntMatrix(((1, 0), (0, 0))))
    cob = cobordism_model(m, p, _free(2), mp, pr)
    x = _free(1, [[0]], {(0,): 0})
    glue = module_hom(m, x, IntMatrix(((1,),)))
    with pytest.raises(PreconditionError, match="sufficient condition"):
        attach(AttachmentModel(x=x, cob=cob, glue=glue))


@pytest.mark.parametrize("glue, condition", [(0, "zero-glue-map"),
                                              (1, "non-degenerate-torsion-free")])
def test_attach_without_flags_names_the_condition_that_holds(glue, condition):
    # M = Z -> P = Z^2 (e1 -> e1) -> R = Z (the first coordinate), no flags
    m = _free(1)
    p = _free(2)
    mp = module_hom(m, p, IntMatrix(((1,), (0,))))
    pr = module_hom(p, m, IntMatrix(((1, 0),)))
    cob = cobordism_model(m, p, m, mp, pr)
    x = _free(1, [[1]])
    res = attach(AttachmentModel(x=x, cob=cob,
                                 glue=module_hom(m, x, IntMatrix(((glue,),)))))
    assert res.condition == condition
    assert res.module.orders == (0, 0)


def test_attach_forced_values_from_zero_table():
    x = _free(1, [[1]], {(1,): 3, (0,): 0, (-1,): 3})
    k = _free(1, gvalues={(1,): 0, (0,): 0, (-1,): 1})
    cob = trivial_ends_model(k)
    res = attach(AttachmentModel(x=x, cob=cob, glue=_glue_zero(cob, x)))
    beta = cob.k_part.membership((1,))
    assert res.module.gvalues[(1,) + beta] == OrderedValue.of(3)
    # the (-1) class has nonzero cobordism value: not forced
    beta_neg = cob.k_part.membership((-1,))
    assert (1,) + beta_neg not in res.module.gvalues


# ---------------------------------------------------------------------------
# the two-sided estimate


def test_genus_interval_examples():
    assert genus_interval(2, 0) == (OrderedValue.of(2), OrderedValue.of(2))
    assert interval_check(2, 0, 2)
    assert genus_interval(1, 3) == (OrderedValue.of(1), OrderedValue.of(4))
    assert interval_check(1, 3, 4) and not interval_check(1, 3, 5)
    lo, hi = genus_interval(2, POS_INF)
    assert hi == POS_INF
    lo, hi = genus_interval(NEG_INF, 1)
    assert lo == NEG_INF


# ---------------------------------------------------------------------------
# stability


def _attachment(x, k):
    cob = trivial_ends_model(k)
    return AttachmentModel(x=x, cob=cob, glue=_glue_zero(cob, x))


def test_stability_identical_inputs():
    x = _free(1, [[1]], {(1,): 1, (0,): 0, (-1,): 1})
    a1 = _attachment(x, _zero_module())
    a2 = _attachment(x, _zero_module())
    rep = stability_check_quasi(a1, a2, 2)
    assert rep.mode == "h2-iso"
    assert rep.before.equivalent and rep.after.equivalent
    assert rep.implication_ok


def test_stability_inequivalent_forms():
    x1 = _free(1, [[1]], {(1,): 0, (0,): 0, (-1,): 0})
    x2 = _free(1, [[2]], {(1,): 0, (0,): 0, (-1,): 0})
    k = _free(1, gvalues={(0,): 0, (1,): 0, (-1,): 0})
    rep = stability_check_quasi(_attachment(x1, k), _attachment(x2, k), 2)
    assert rep.mode == "non-degenerate"
    assert not rep.before.equivalent and not rep.after.equivalent
    assert rep.implication_ok


def test_stability_random_suite():
    rng = random.Random(55)
    for _ in range(25):
        x1 = rand_decorated(rng, rank=rng.randint(1, 2), nondegenerate=True)
        if rng.random() < 0.5:
            from .gens import equivalent_copy

            x2 = equivalent_copy(rng, x1)
        else:
            x2 = rand_decorated(rng, rank=x1.free_rank, nondegenerate=True)
        k = _free(1, gvalues={key: 0 for key in box_keys((0,), 2)})
        rep = stability_check_quasi(_attachment(x1, k), _attachment(x2, k), 2)
        assert rep.implication_ok


def _answer(res):
    return res.verdict, res.witness, res.undecided


def test_stability_reports_match_direct_searches(monkeypatch):
    """Both answers of a report are those of two separate searches, and
    an after pair equal by value to the before pair is not searched again."""
    searches = []

    def counted(d1, d2, bound):
        searches.append((d1, d2))
        return algebraically_equivalent(d1, d2, bound)

    monkeypatch.setattr(forms, "algebraically_equivalent", counted)

    def check(rep, before, after, bound):
        assert _answer(rep.before) == _answer(algebraically_equivalent(*before, bound))
        assert _answer(rep.after) == _answer(algebraically_equivalent(*after, bound))
        assert searches == ([before] if after == before else [before, after])
        searches.clear()
        return rep.before.verdict, rep.after.verdict

    rng = random.Random(1904)
    verdicts = {"h2zero": set(), "h2-iso": set(), "nondegenerate": set()}
    for _ in range(12):
        torsion = rng.random() < 0.4
        d1 = rand_decorated(rng, rank=rng.randint(1, 2), radius=1, torsion=torsion)
        d2 = (equivalent_copy(rng, d1) if rng.random() < 0.6 else
              rand_decorated(rng, rank=d1.free_rank, radius=1, torsion=torsion))
        bound = rng.randint(1, 2)
        z = decorated_module((), None, {(): rng.choice((0, 3))})
        rep = sum_stability_check(d1, d2, z, z, "h2zero", bound)
        verdicts["h2zero"].add(check(
            rep, (d1, d2), (sum_model(d1, z), sum_model(d2, z)), bound))
        a1, a2 = _attachment(d1, _zero_module()), _attachment(d2, _zero_module())
        rep = stability_check_quasi(a1, a2, bound)
        assert rep.mode == "h2-iso"
        verdicts["h2-iso"].add(check(
            rep, (d1, d2), (attach(a1).module, attach(a2).module), bound))
    for _ in range(12):
        d1 = rand_decorated(rng, rank=rng.randint(1, 2), radius=1, nondegenerate=True)
        d2 = (equivalent_copy(rng, d1) if rng.random() < 0.7 else
              rand_decorated(rng, rank=d1.free_rank, radius=1, nondegenerate=True))
        z1, z2 = (_free(1, gvalues={key: rng.choice((0, 0, 1)) for key in box_keys((0,), 1)})
                  for _ in range(2))
        rep = sum_stability_check(d1, d2, z1, z2, "nondegenerate", 1)
        verdicts["nondegenerate"].add(check(
            rep, (d1, d2), (sum_model(d1, z1), sum_model(d2, z2)), 1))
    # golden stability_sum_nondegenerate: x_a, x_b, z_free, z_tor
    x_a = _free(2, [[1, 0], [0, -1]], {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3})
    x_b = _free(2, [[-1, 0], [0, 1]], {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3})
    z_free = _free(1, gvalues={(0,): 0, (1,): 0})
    z_tor = decorated_module((2,), None, {(0,): 0, (1,): 0})
    rep = sum_stability_check(x_a, x_b, z_free, z_tor, "nondegenerate", 2)
    assert check(rep, (x_a, x_b), (sum_model(x_a, z_free), sum_model(x_b, z_tor)),
                 2) == ("EQUIVALENT", "NOT-WITHIN-BOUND")
    # an after pair that differs from the before pair in its table alone
    changed = decorated_module(x_b.orders, x_b.form, {**x_b.gvalues, (1, 1): 4})
    rep = stability_report("table", False, (x_a, x_b), (x_a, changed), 2)
    assert check(rep, (x_a, x_b), (x_a, changed), 2) == ("EQUIVALENT", "NOT-WITHIN-BOUND")
    # the samples cover both verdicts, and pairs whose verdicts differ
    for mode in ("h2zero", "h2-iso"):
        assert verdicts[mode] == {("EQUIVALENT",) * 2, ("NOT-WITHIN-BOUND",) * 2}
    assert ("EQUIVALENT", "NOT-WITHIN-BOUND") in verdicts["nondegenerate"]


def test_stability_requires_hypotheses():
    # degenerate forms, nontrivial K: no recognized regime
    x = _free(1, [[0]], {(0,): 0, (1,): 1})
    k = _free(1)
    with pytest.raises(PreconditionError):
        stability_check_quasi(_attachment(x, k), _attachment(x, k), 2)


# ---------------------------------------------------------------------------
# certificates


def test_empty_trace_is_invertible():
    cert = quasi_invertibility_certificate([])
    assert cert.invertible and cert.quasi_invertible


def test_canceling_pair_keeps_invertibility():
    cert = quasi_invertibility_certificate([Move("canceling-pairs")])
    assert cert.invertible
    assert cert.steps[0].rule.startswith("homotopically canceling")


def test_nonempty_sphere_link_drops_invertibility():
    cert = quasi_invertibility_certificate(
        [Move("connected-sum-piece", sphere_link_nonempty=True),
         Move("one-handles")]
    )
    assert cert.quasi_invertible and not cert.invertible
    assert not cert.steps[0].invertible_after


def test_unrecognized_move_rejected():
    with pytest.raises(PreconditionError):
        quasi_invertibility_certificate([Move("surgery-on-a-sphere")])

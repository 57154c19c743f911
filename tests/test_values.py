import pytest

from kirbycalc.values import NEG_INF, POS_INF, OrderedValue


def test_finite_values_hash_like_their_int():
    for n in (-3, 0, 3, 2**70):
        v = OrderedValue.of(n)
        assert v == n and hash(v) == hash(n)
        assert {v: "x"}.get(n) == "x" and {n: "y"}.get(v) == "y"
        assert n in {v} and v in {n}
    assert len({OrderedValue.of(3), 3}) == 1
    assert len({NEG_INF, POS_INF, OrderedValue.of(0), 0}) == 3


def test_finite_value_must_be_integral():
    assert str(OrderedValue(0, 2)) == "2"
    with pytest.raises(TypeError):
        OrderedValue(0, 2.7)

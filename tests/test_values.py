import pytest

from kirbycalc.values import NEG_INF, POS_INF, OrderedValue, integer


def test_finite_values_hash_like_their_int():
    for n in (-3, 0, 3, 2**70):
        v = OrderedValue.of(n)
        assert v == n and hash(v) == hash(n)
        assert {v: "x"}.get(n) == "x" and {n: "y"}.get(v) == "y"
        assert n in {v} and v in {n}
    assert len({OrderedValue.of(3), 3}) == 1
    assert len({NEG_INF, POS_INF, OrderedValue.of(0), 0}) == 3
    values = (NEG_INF, OrderedValue.of(-1), OrderedValue.of(0),
              OrderedValue.of(2**70), POS_INF)
    for a in values:
        for b in values:
            twin = OrderedValue.parse(str(b))
            assert (a == twin) == (a is b) and (a != twin) == (a is not b)
        for other in (True, False, 0.0, -1.0, float("inf"), float("-inf"),
                      "0", "inf", "-inf"):
            assert a != other and not (a == other)


def test_finite_value_must_be_integral():
    assert str(OrderedValue(0, 2)) == "2"
    with pytest.raises(TypeError):
        OrderedValue(0, 2.7)


def test_integer_and_ordered_value_tokens():
    for text, n in (("0", 0), ("-0", 0), ("17", 17), ("-17", -17), ("007", 7)):
        assert integer(text) == n
        assert OrderedValue.parse(text) == n
    for text, v in (("+5", 5), ("+0", 0), ("inf", POS_INF), ("+inf", POS_INF),
                    ("-inf", NEG_INF)):
        assert OrderedValue.parse(text) == v
    int_takes = ("1_0", " 1", "1 ", "\u0661")   # int() reads these; neither reader does
    malformed = ("", "-", "--1", "\u00b2", "1.0", "0x1")
    for text in int_takes + malformed + ("+1", "inf"):
        with pytest.raises(ValueError, match="not an integer"):
            integer(text)
    for text in int_takes + malformed + ("+", "+-5", "-+5", "++5", "+-inf", "Inf"):
        with pytest.raises(ValueError, match="not an ordered value"):
            OrderedValue.parse(text)

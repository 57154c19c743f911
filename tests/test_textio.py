import random
import string

import pytest

from kirbycalc.errors import FormatError
from kirbycalc.forms import decorated_module
from kirbycalc.genus import identity_disk_bundle_table
from kirbycalc.handlebody import empty_handlebody, handlebody
from kirbycalc.intmat import IntMatrix
from kirbycalc.textio import (
    _TOKEN,
    _Record,
    parse_handlebody,
    parse_module,
    parse_table,
    render_handlebody,
    render_module,
    render_table,
)

from .gens import rand_decorated, rand_handlebody


def test_minimal_file_is_the_ball():
    h = parse_handlebody("handlebody v1\none_handles 0\n")
    assert h == empty_handlebody()


def test_s2xd2_file():
    text = "handlebody v1\none_handles 0\ntwo_handle 1 word= framing=0\n"
    h = parse_handlebody(text)
    assert h.n == 1 and h.two_handles[0].framing == 0
    assert h.two_handles[0].word == ()
    assert render_handlebody(h) == text


def test_full_roundtrip_with_fronts_and_linking():
    h = handlebody(
        2,
        [((1, -2, 1), 3), ((2,), -1)],
        IntMatrix(((3, 7), (7, -1))),
    )
    text = render_handlebody(h)
    assert parse_handlebody(text) == h
    assert render_handlebody(parse_handlebody(text)) == text


def test_random_roundtrips():
    rng = random.Random(47)
    for _ in range(40):
        h = rand_handlebody(rng, with_fronts=rng.random() < 0.5)
        text = render_handlebody(h)
        again = parse_handlebody(text)
        assert again == h
        assert render_handlebody(again) == text


def test_symmetric_closure_of_linking_lines():
    text = ("handlebody v1\none_handles 0\n"
            "two_handle 1 word= framing=0\ntwo_handle 2 word= framing=0\n"
            "linking 2 1 5\n")
    h = parse_handlebody(text)
    assert h.linking[0, 1] == 5 and h.linking[1, 0] == 5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_handlebody("handlebody v1\none_handles 0\nbogus line\n")
    assert exc.value.line == 3

    with pytest.raises(FormatError) as exc:
        parse_handlebody("handlebody v1\none_handles 1\n"
                         "two_handle 1 word=x framing=0\n")
    assert exc.value.line == 3 and exc.value.column is not None

    with pytest.raises(FormatError):
        parse_handlebody("no header\n")


def test_unknown_generator_rejected():
    with pytest.raises(FormatError):
        parse_handlebody("handlebody v1\none_handles 1\n"
                         "two_handle 1 word=2 framing=0\n")


def test_unknown_one_handle_reported_at_its_letter():
    text = ("handlebody v1\none_handles 1\n"
            "two_handle 7 word=1 -2 framing=0\n")
    with pytest.raises(FormatError) as exc:
        parse_handlebody(text)
    assert str(exc.value) == ("line 3, column 21: "
                              "2-handle 7 runs over unknown 1-handle -2")


def test_conflicting_linking_rejected():
    text = ("handlebody v1\none_handles 0\n"
            "two_handle 1 word= framing=0\ntwo_handle 2 word= framing=0\n"
            "linking 1 2 5\nlinking 2 1 4\n")
    with pytest.raises(FormatError, match="conflicting"):
        parse_handlebody(text)


def test_diagonal_linking_conflicts_with_framing():
    text = ("handlebody v1\none_handles 0\n"
            "two_handle 1 word= framing=0\nlinking 1 1 2\n")
    with pytest.raises(FormatError, match="framing"):
        parse_handlebody(text)


def test_duplicate_two_handle_id():
    text = ("handlebody v1\none_handles 0\n"
            "two_handle 1 word= framing=0\ntwo_handle 1 word= framing=1\n")
    with pytest.raises(FormatError, match="duplicate"):
        parse_handlebody(text)


def test_front_for_unknown_handle():
    text = ("handlebody v1\none_handles 0\n"
            "front 1 writhe=0 right=1 up=1 down=1\n")
    with pytest.raises(FormatError, match="unknown"):
        parse_handlebody(text)


# ---------------------------------------------------------------------------
# table files


def test_table_roundtrip():
    t = identity_disk_bundle_table(3, euler_numbers=(0, -1))
    text = render_table(t)
    assert parse_table(text).entries == t.entries
    assert render_table(parse_table(text)) == text


def test_table_values_parse_infinities():
    t = parse_table("entry g=0 n=0 value=-inf\nentry g=1 n=0 value=inf\n")
    assert str(t.value(0, 0)) == "-inf"
    assert str(t.value(1, 0)) == "inf"


def test_table_duplicate_entry():
    with pytest.raises(FormatError, match="duplicate"):
        parse_table("entry g=0 n=0 value=0\nentry g=0 n=0 value=1\n")


# ---------------------------------------------------------------------------
# module files


def test_module_roundtrip():
    d = decorated_module((0, 2), IntMatrix(((2, 0), (0, 0))),
                         {(1, 0): 2, (0, 1): 0})
    text = render_module(d)
    assert parse_module(text) == d
    assert render_module(parse_module(text)) == text


def test_module_random_roundtrips():
    rng = random.Random(53)
    for _ in range(25):
        d = rand_decorated(rng, rank=rng.randint(0, 2),
                           torsion=rng.random() < 0.5)
        text = render_module(d)
        assert parse_module(text) == d
        assert render_module(parse_module(text)) == text


def test_module_torsion_form_rejected():
    text = ("module v1\ngenerator 1 order=2\nform 1 1 1\n")
    with pytest.raises(FormatError):
        parse_module(text)


def test_module_bad_genus_arity():
    text = ("module v1\ngenerator 1 order=0\ngenus 1 2 value=0\n")
    with pytest.raises(FormatError):
        parse_module(text)


def test_record_tokens_and_columns_match_the_token_pattern():
    rng = random.Random(61)
    letters = [c for c in string.printable if not c.isspace()]
    for _ in range(2000):
        gaps = ["".join(rng.choice(" \t") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))]
        gaps[0] = gaps[0] if rng.random() < 0.5 else ""
        words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
                 for _ in gaps]
        line = "".join(g + w for g, w in zip(gaps, words)) + rng.choice(("", " ", "\t "))
        rec = _Record(7, line)
        matches = list(_TOKEN.finditer(line))
        assert rec.toks == [m.group(0) for m in matches] == words
        assert rec.kind == words[0]
        assert rec.error("x").column == matches[0].start() + 1
        for k, m in enumerate(matches):
            err = rec.error("x", k)
            assert (err.line, err.column) == (7, m.start() + 1)

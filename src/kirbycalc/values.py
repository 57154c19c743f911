"""Totally ordered values: -inf < any integer < +inf.

Genus-type invariants take values in an ordered set that, for every use
in this package, is the integers extended by the two infinities.  Plain
floats are avoided so that all arithmetic stays exact.
"""

from __future__ import annotations

import functools
from operator import index

from .errors import KirbyCalcError

_NEG, _FIN, _POS = -1, 0, 1


def integer(text: str) -> int:
    """text as an integer: an optional `-` and ASCII digits, else ValueError.

    int() alone also takes a `+`, `_` separators, blanks around the
    number and the digits of other scripts; the file formats and the
    command line take none of these.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


@functools.total_ordering
class OrderedValue:
    """An integer, or one of the two infinities."""

    __slots__ = ("_kind", "_n")

    def __init__(self, kind, n=0):
        if kind not in (_NEG, _FIN, _POS):
            raise ValueError(f"bad kind {kind!r}")
        self._kind = kind
        self._n = index(n) if kind == _FIN else 0

    @classmethod
    def of(cls, x) -> "OrderedValue":
        if isinstance(x, OrderedValue):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not an ordered value")
        if isinstance(x, int):
            return cls(_FIN, x)
        raise TypeError(f"cannot coerce {x!r} to an ordered value")

    def _key(self):
        return (self._kind, self._n)

    def __eq__(self, other):
        try:
            other = OrderedValue.of(other)
        except TypeError:
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other):
        try:
            other = OrderedValue.of(other)
        except TypeError:
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self):
        # a finite value equals its int, so it must hash like it
        return hash(self._n) if self._kind == _FIN else hash(self._key())

    def __add__(self, other):
        other = OrderedValue.of(other)
        kinds = {self._kind, other._kind}
        if kinds == {_NEG, _POS}:
            raise KirbyCalcError("cannot add -inf and +inf")
        if _POS in kinds:
            return POS_INF
        if _NEG in kinds:
            return NEG_INF
        return OrderedValue(_FIN, self._n + other._n)

    __radd__ = __add__

    def __str__(self):
        if self._kind == _NEG:
            return "-inf"
        if self._kind == _POS:
            return "inf"
        return str(self._n)

    def __repr__(self):
        return f"OrderedValue({self})"

    @classmethod
    def parse(cls, text: str) -> "OrderedValue":
        """inf, +inf, -inf, or an integer with an optional + or - sign."""
        if text in ("inf", "+inf"):
            return POS_INF
        if text == "-inf":
            return NEG_INF
        if not text.startswith("+-"):
            try:
                return cls(_FIN, integer(text.removeprefix("+")))
            except ValueError:
                pass
        raise ValueError(f"not an ordered value: {text!r}")


NEG_INF = OrderedValue(_NEG)
POS_INF = OrderedValue(_POS)

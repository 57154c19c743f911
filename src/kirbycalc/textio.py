"""Bit-exact text formats: handlebody, disk-bundle table, module files.

All formats are line-oriented, diff-friendly and hand-editable.
Canonical rendering sorts lines by kind and then by id, so
parse-then-render is byte-stable.  Parse errors carry line and column.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from .errors import FormatError, KirbyCalcError
from .forms import DecoratedModule, decorated_module
from .genus import DiskBundleTable, disk_bundle_table
from .handlebody import Handlebody2, TwoHandle, handlebody
from .intmat import IntMatrix
from .legendrian import FrontCounts
from .values import OrderedValue, integer

HANDLEBODY_HEADER = "handlebody v1"
MODULE_HEADER = "module v1"

_TOKEN = re.compile(r"\S+")


class _Record:
    """One non-blank line: its number, the line, its tokens and its kind
    (the first token).  The readers raise FormatError at this line and
    the 1-based column of the token they read; columns are found only
    then."""

    __slots__ = ("lineno", "line", "toks", "kind")

    def __init__(self, lineno, line):
        self.lineno = lineno
        self.line = line
        self.toks = line.split()
        self.kind = self.toks[0]

    def error(self, message, k=0):
        """FormatError at token k, by default the line's first token.
        str.split and _TOKEN agree on what is whitespace, so token k is
        the k-th match of _TOKEN."""
        starts = [m.start() for m in _TOKEN.finditer(self.line)]
        return FormatError(message, self.lineno, starts[k] + 1)

    def field(self, k, name):
        """The text after `name=` in token k."""
        tok = self.toks[k]
        if not tok.startswith(name + "="):
            raise self.error(f"expected {name}=<value>, got {tok!r}", k)
        return tok[len(name) + 1:]

    def integer(self, k, what="integer", name=None):
        """Token k, or the text after its `name=`, as an integer: an
        optional `-` and ASCII digits (values.integer)."""
        text = self.toks[k] if name is None else self.field(k, name)
        try:
            return integer(text)
        except ValueError:
            raise self.error(f"expected {what}, got {text!r}", k) from None

    def value(self, k):
        """The OrderedValue after `value=` in token k: an optional sign
        and ASCII digits, or inf, +inf, -inf (OrderedValue.parse)."""
        text = self.field(k, "value")
        try:
            return OrderedValue.parse(text)
        except ValueError as exc:
            raise self.error(str(exc), k) from None


def _records(text, header=None):
    """A record per non-blank line of text.  With a header, line 1 must
    read it (blanks around allowed)."""
    lines = text.splitlines()
    if header is not None and (not lines or lines[0].strip() != header):
        raise FormatError(f"missing header {header!r}", 1, 1)
    skip = header is not None
    return [_Record(lineno, line)
            for lineno, line in enumerate(lines[skip:], start=1 + skip)
            if line.strip()]


@contextmanager
def _errors_at(rec=None):
    """Report a KirbyCalcError raised inside as a FormatError at rec's
    first token, or at line 1, column 1."""
    try:
        yield
    except KirbyCalcError as exc:
        if rec is None:
            raise FormatError(str(exc), 1, 1) from None
        raise rec.error(str(exc)) from None


def _symmetric_entry(rec, entries, id_what, value_what, conflict):
    """Read `kind i j value` into entries[(min, max)] = (value, line).

    i j and j i name the same entry; a second line for it must agree.
    """
    if len(rec.toks) != 4:
        raise rec.error(f"{rec.kind} takes ids i j and a value")
    i = rec.integer(1, id_what)
    j = rec.integer(2, id_what)
    v = rec.integer(3, value_what)
    key = (min(i, j), max(i, j))
    if key in entries and entries[key][0] != v:
        raise rec.error(f"conflicting {conflict} {key}")
    entries[key] = (v, rec.lineno)


def _triangle(kind, m, start):
    """A `kind i j v` line (1-based ids) for each nonzero v = m[i, j]
    with j >= i + start."""
    return [f"{kind} {i + 1} {j + 1} {row[j]}"
            for i, row in enumerate(m.entries)
            for j in range(i + start, len(row)) if row[j] != 0]


# ---------------------------------------------------------------------------
# handlebody files


def render_handlebody(h: Handlebody2) -> str:
    lines = [HANDLEBODY_HEADER, f"one_handles {h.k}"]
    for idx, th in enumerate(h.two_handles):
        word = " ".join(str(x) for x in th.word)
        lines.append(f"two_handle {idx + 1} word={word} framing={th.framing}")
    lines += _triangle("linking", h.linking, 1)
    for idx, th in enumerate(h.two_handles):
        if th.front is not None:
            f = th.front
            lines.append(
                f"front {idx + 1} writhe={f.writhe} right={f.right_cusps} "
                f"up={f.up_cusps} down={f.down_cusps}"
            )
    return "\n".join(lines) + "\n"


def parse_handlebody(text: str) -> Handlebody2:
    records = _records(text, HANDLEBODY_HEADER)
    one_handles = None
    raw_handles = {}   # id -> (word, framing, record, token of word[0])
    raw_links = {}     # (i, j) normalized -> (value, lineno)
    raw_fronts = {}    # id -> (FrontCounts, record)
    for rec in records:
        toks = rec.toks
        if rec.kind == "one_handles":
            if len(toks) != 2:
                raise rec.error("one_handles takes one count")
            if one_handles is not None:
                raise rec.error("duplicate one_handles line")
            one_handles = rec.integer(1, "count")
            if one_handles < 0:
                raise rec.error("one_handles must be non-negative", 1)
        elif rec.kind == "two_handle":
            if len(toks) < 4:
                raise rec.error("malformed two_handle line")
            hid = rec.integer(1, "2-handle id")
            if hid in raw_handles:
                raise rec.error(f"duplicate 2-handle id {hid}", 1)
            word = []
            if rec.field(2, "word"):
                word.append(rec.integer(2, "word letter", "word"))
            i = 3
            while i < len(toks) and not toks[i].startswith("framing="):
                word.append(rec.integer(i, "word letter"))
                i += 1
            if i == len(toks):
                raise rec.error("missing framing=<int>")
            framing = rec.integer(i, name="framing")
            if i + 1 != len(toks):
                raise rec.error("trailing tokens after framing", i + 1)
            raw_handles[hid] = (tuple(word), framing, rec, i - len(word))
        elif rec.kind == "linking":
            _symmetric_entry(rec, raw_links, "2-handle id", "linking number",
                             "linking values for pair")
        elif rec.kind == "front":
            if len(toks) != 6:
                raise rec.error("malformed front line")
            hid = rec.integer(1, "2-handle id")
            if hid in raw_fronts:
                raise rec.error(f"duplicate front for 2-handle {hid}", 1)
            counts = [rec.integer(k, name=name) for k, name
                      in enumerate(("writhe", "right", "up", "down"), start=2)]
            with _errors_at(rec):
                raw_fronts[hid] = (FrontCounts(*counts), rec)
        else:
            raise rec.error(f"unknown line kind {rec.kind!r}")
    if one_handles is None:
        raise FormatError("missing one_handles line", 1, 1)

    index_of = {hid: i for i, hid in enumerate(sorted(raw_handles))}
    handles = [TwoHandle(*raw_handles[hid][:2], front=raw_fronts.pop(hid, (None,))[0])
               for hid in index_of]
    if raw_fronts:
        hid = min(raw_fronts)
        raise raw_fronts[hid][1].error(f"front for unknown 2-handle {hid}", 1)
    n = len(handles)
    linking = [[th.framing if i == j else 0 for j in range(n)]
               for i, th in enumerate(handles)]
    for (i, j), (v, lineno) in raw_links.items():
        for hid in (i, j):
            if hid not in index_of:
                raise FormatError(f"linking names unknown 2-handle {hid}",
                                  lineno, 1)
        a, b = index_of[i], index_of[j]
        if a == b and v != handles[a].framing:
            raise FormatError(
                f"diagonal linking {v} conflicts with framing "
                f"{handles[a].framing}", lineno, 1
            )
        linking[a][b] = linking[b][a] = v
    for hid, (word, _, rec, first) in raw_handles.items():
        for k, letter in enumerate(word, start=first):
            if letter == 0 or abs(letter) > one_handles:
                raise rec.error(
                    f"2-handle {hid} runs over unknown 1-handle {letter}", k)
    with _errors_at():
        return handlebody(one_handles, handles,
                          IntMatrix.from_rows(linking, cols=n))


# ---------------------------------------------------------------------------
# disk-bundle table files


def render_table(t: DiskBundleTable) -> str:
    lines = []
    for (g, n) in sorted(t.entries):
        lines.append(f"entry g={g} n={n} value={t.entries[(g, n)]}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> DiskBundleTable:
    entries = {}
    for rec in _records(text):
        if rec.kind != "entry" or len(rec.toks) != 4:
            raise rec.error("expected: entry g=<int> n=<int> value=<v>")
        g = rec.integer(1, name="g")
        n = rec.integer(2, name="n")
        val = rec.value(3)
        if (g, n) in entries:
            raise rec.error(f"duplicate entry for g={g} n={n}")
        entries[(g, n)] = val
    with _errors_at():
        return disk_bundle_table(entries)


# ---------------------------------------------------------------------------
# module files


def render_module(d: DecoratedModule) -> str:
    lines = [MODULE_HEADER]
    for i, t in enumerate(d.orders):
        lines.append(f"generator {i + 1} order={t}")
    lines += _triangle("form", d.form, 0)
    for key in sorted(d.gvalues):
        parts = ["genus"] + [str(c) for c in key] + [f"value={d.gvalues[key]}"]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_module(text: str) -> DecoratedModule:
    records = _records(text, MODULE_HEADER)
    orders = {}
    form_entries = {}  # (i, j) normalized -> (value, lineno)
    gvalues = []       # (coefficients, value, record)
    for rec in records:
        toks = rec.toks
        if rec.kind == "generator":
            if len(toks) != 3:
                raise rec.error("generator takes an id and order=<int>")
            gid = rec.integer(1, "generator id")
            if gid in orders:
                raise rec.error(f"duplicate generator {gid}", 1)
            orders[gid] = rec.integer(2, name="order")
        elif rec.kind == "form":
            _symmetric_entry(rec, form_entries, "generator id", "form value",
                             "form values for")
        elif rec.kind == "genus":
            if len(toks) < 2 or not toks[-1].startswith("value="):
                raise rec.error("expected: genus <coefficients> value=<v>")
            coeffs = tuple(rec.integer(k, "coefficient")
                           for k in range(1, len(toks) - 1))
            gvalues.append((coeffs, rec.value(len(toks) - 1), rec))
        else:
            raise rec.error(f"unknown line kind {rec.kind!r}")
    ids = sorted(orders)
    if ids != list(range(1, len(ids) + 1)):
        raise FormatError("generator ids must be 1..n", 1, 1)
    n = len(ids)
    form = [[0] * n for _ in range(n)]
    for (i, j), (v, lineno) in form_entries.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise FormatError(f"form names unknown generator in {(i, j)}",
                              lineno, 1)
        form[i - 1][j - 1] = form[j - 1][i - 1] = v
    table = {}
    for coeffs, val, rec in gvalues:
        if len(coeffs) != n:
            raise FormatError(
                f"genus line needs {n} coefficients, got {len(coeffs)}",
                rec.lineno, 1
            )
        if table.get(coeffs, val) != val:
            raise rec.error(f"conflicting genus values for {coeffs}")
        table[coeffs] = val
    with _errors_at():
        return decorated_module(tuple(orders[i] for i in ids),
                                IntMatrix.from_rows(form, cols=n), table)

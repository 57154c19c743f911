"""Parse-error corpus: malformed and edge-case text for the three formats.

parse_errors.json holds one row per input: its format, its text and
the outcome, which is either the exact FormatError (message, line,
column) or, for accepted input, the canonical rendering of the parsed
value.  After an intended change of outcome, rewrite the outcomes with

    PYTHONPATH=src python -m tests.test_parse_errors
"""

import json
from pathlib import Path

import pytest

from kirbycalc.errors import FormatError
from kirbycalc.textio import (
    parse_handlebody,
    parse_module,
    parse_table,
    render_handlebody,
    render_module,
    render_table,
)

CORPUS = Path(__file__).parent / "parse_errors.json"
FORMATS = {
    "handlebody": (parse_handlebody, render_handlebody),
    "table": (parse_table, render_table),
    "module": (parse_module, render_module),
}
OUTCOME_KEYS = ("error", "line", "column", "rendered")


def _outcome(fmt, text):
    parse, render = FORMATS[fmt]
    try:
        value = parse(text)
    except FormatError as exc:
        return {"error": str(exc), "line": exc.line, "column": exc.column}
    return {"rendered": render(value)}


def _rows():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("row", _rows(), ids=[r["name"] for r in _rows()])
def test_parse_outcome(row):
    want = {k: row[k] for k in OUTCOME_KEYS if k in row}
    assert _outcome(row["format"], row["text"]) == want


def test_row_names_are_unique():
    names = [r["name"] for r in _rows()]
    assert len(names) == len(set(names))


if __name__ == "__main__":
    rows = [{"name": r["name"], "format": r["format"], "text": r["text"],
             **_outcome(r["format"], r["text"])} for r in _rows()]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")

"""CLI usage corpus: help text, usage lines and argument errors.

cli_usage.json holds one row per invocation: its argv and the exact
exit code, stdout and stderr of cli.main, run with COLUMNS=80 so that
argparse wraps help text the same way on every terminal.  After an
intended change of outcome, rewrite the outcomes with

    PYTHONPATH=src python -m tests.test_cli_usage
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from kirbycalc import cli
from kirbycalc.cli import build_parser, main

CORPUS = Path(__file__).resolve().parent / "cli_usage.json"
OUTCOME_KEYS = ("exit", "stdout", "stderr")


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _rows():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("row", _rows(), ids=[r["name"] for r in _rows()])
def test_usage_outcome(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # file arguments name files that do not exist
    want = {k: row[k] for k in OUTCOME_KEYS}
    assert _outcome(row["argv"]) == want


def test_cached_parsers_carry_nothing_between_calls(tmp_path, monkeypatch):
    """Every row twice in one process, on parsers first built under a
    narrow terminal: once in corpus order, then in reverse."""
    monkeypatch.chdir(tmp_path)
    rows = _rows()
    cli._parser.cache_clear()
    with monkeypatch.context() as narrow:
        narrow.setenv("COLUMNS", "30")
        for row in rows:
            build_parser(row["argv"])
    for row in rows + rows[::-1]:
        assert _outcome(row["argv"]) == {k: row[k] for k in OUTCOME_KEYS}, row["name"]


def test_row_names_are_unique():
    names = [r["name"] for r in _rows()]
    assert len(names) == len(set(names))


if __name__ == "__main__":
    import tempfile

    rows = _rows()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        rows = [{"name": r["name"], "argv": r["argv"], **_outcome(r["argv"])}
                for r in rows]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")

"""Golden CLI corpus: fixed inputs, byte-exact stdout and exit codes.

golden/cases.txt lists the cases.  Each runs cli.main in-process from
golden/inputs; query commands run a second time with
KIRBYCALC_REPORT=machine.  After an intended output change, rewrite
the expected files with

    PYTHONPATH=src python -m tests.test_golden_cli
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from kirbycalc import cli
from kirbycalc.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
# transformer commands print no report block, so KIRBYCALC_REPORT is moot
TRANSFORMERS = {"cork", "wminus", "wplus", "steinify", "sum"}


def _cases():
    out = []
    for line in (GOLDEN / "cases.txt").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, *argv = line.split()
        out.append((name, argv, "full"))
        if argv[0] not in TRANSFORMERS:
            out.append((name, argv, "machine"))
    return out


def _expected_path(name, report):
    return GOLDEN / "expected" / f"{name}.{report}.out"


def _run(argv, report):
    """Exit code line plus stdout of one in-process CLI run."""
    stdout = io.StringIO()
    saved_cwd, saved_report = os.getcwd(), os.environ.get("KIRBYCALC_REPORT")
    os.environ["KIRBYCALC_REPORT"] = report
    os.chdir(GOLDEN / "inputs")
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(saved_cwd)
        if saved_report is None:
            del os.environ["KIRBYCALC_REPORT"]
        else:
            os.environ["KIRBYCALC_REPORT"] = saved_report
    return f"exit {code}\n" + stdout.getvalue()


@pytest.mark.parametrize(
    "name,argv,report", _cases(), ids=[f"{n}.{r}" for n, _, r in _cases()]
)
def test_golden_output(name, argv, report):
    want = _expected_path(name, report).read_bytes()
    assert _run(argv, report).encode("ascii") == want


def test_a_usage_error_leaves_the_cached_parser_as_it_was(capsys):
    parser = build_parser(["sum"])
    with pytest.raises(SystemExit) as exc:
        main(["sum", "a", "b"])
    assert exc.value.code == 2
    assert "one of the arguments --boundary --connected is required" \
        in capsys.readouterr().err
    argv = ["sum", "linked.hb", "pair.hb", "--boundary"]
    after_error = _run(argv, "full")
    assert build_parser(argv) is parser
    cli._parser.cache_clear()
    assert _run(argv, "full") == after_error
    assert after_error.encode("ascii") == _expected_path("sum_boundary", "full").read_bytes()


def test_every_expected_file_has_a_case():
    names = {_expected_path(n, r).name for n, _, r in _cases()}
    on_disk = {p.name for p in (GOLDEN / "expected").iterdir()}
    assert on_disk == names


if __name__ == "__main__":
    for name, argv, report in _cases():
        _expected_path(name, report).write_bytes(
            _run(argv, report).encode("ascii"))

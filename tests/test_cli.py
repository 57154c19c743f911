import argparse
import io
import random
import sys

import pytest

from kirbycalc import cli
from kirbycalc.cli import COMMANDS, build_parser, main
from kirbycalc.handlebody import handlebody, mazur_cork_template
from kirbycalc.textio import render_handlebody, render_module, render_table
from kirbycalc.genus import identity_disk_bundle_table
from kirbycalc.forms import decorated_module
from kirbycalc.intmat import IntMatrix

from .gens import rand_handlebody

S2XD2_TEXT = "handlebody v1\none_handles 0\ntwo_handle 1 word= framing=0\n"
TWISTED_TEXT = "handlebody v1\none_handles 0\ntwo_handle 1 word= framing=1\n"
EMPTY_TEXT = "handlebody v1\none_handles 0\n"


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cork_then_homology(files, capsys):
    code, out, _ = run(capsys, "cork", "1", "1", "1")
    assert code == 0
    path = files("cork.hb", out)
    code, out, _ = run(capsys, "homology", path)
    assert code == 0
    assert "Summary: H1: 0, H2 rank: 0, boundary H1: 0" in out


def test_info_command(files, capsys):
    path = files("i.hb", S2XD2_TEXT)
    code, out, _ = run(capsys, "info", path)
    assert code == 0
    assert "one-handles: 0" in out and "two-handles: 1" in out


def test_homology_machine_verbosity(files, capsys, monkeypatch):
    path = files("h.hb", S2XD2_TEXT)
    monkeypatch.setenv("KIRBYCALC_REPORT", "machine")
    code, out, _ = run(capsys, "homology", path)
    assert code == 0
    assert "Summary" not in out
    assert "h2-rank: 1" in out


def test_boundary_command(files, capsys):
    path = files("c.hb", S2XD2_TEXT)
    code, out, _ = run(capsys, "boundary", path)
    assert code == 0
    assert "homology-sphere: no" in out


def test_wplus_pipeline(files, capsys):
    base = handlebody(0, [((), 0)])
    path = files("b.hb", render_handlebody(base))
    code, out, _ = run(capsys, "wplus", path, "1", "2")
    assert code == 0
    assert "one_handles 1" in out
    assert "front 2 writhe=3" in out


@pytest.mark.parametrize("move", ["wplus", "wminus"])
@pytest.mark.parametrize("idx", ["0", "-1", "4"])
def test_w_move_refuses_an_id_outside_the_file(files, capsys, move, idx):
    base = handlebody(0, [((), 0)] * 3)
    path = files("b.hb", render_handlebody(base))
    code, out, err = run(capsys, move, path, idx, "1")
    assert (code, out) == (2, "")
    assert err == f"kirbycalc: error: no 2-handle with id {idx}: the file has 3 2-handle(s)\n"


def test_steinify_command(files, capsys):
    text = ("handlebody v1\none_handles 0\n"
            "two_handle 1 word= framing=-5\n"
            "front 1 writhe=0 right=1 up=1 down=1\n")
    path = files("s.hb", text)
    code, out, _ = run(capsys, "steinify", path)
    assert code == 0
    assert "right=4" in out  # three stabilizations on the unknot front


def test_sum_requires_mode(files, capsys):
    p1 = files("a.hb", S2XD2_TEXT)
    with pytest.raises(SystemExit) as exc:
        run(capsys, "sum", p1, p1)
    assert exc.value.code == 2


def test_sum_boundary(files, capsys):
    p1 = files("a.hb", S2XD2_TEXT)
    code, out, _ = run(capsys, "sum", p1, p1, "--boundary")
    assert code == 0
    assert "two_handle 2" in out


def test_kmbound_fixture(files, capsys):
    d = decorated_module((0, 0), IntMatrix(((-1, 0), (0, -1))))
    path = files("q.mod", render_module(d))
    code, out, _ = run(capsys, "kmbound", path, "3,1")
    assert code == 0
    assert "residue: -8" in out
    assert "positive genus forced" in out


def test_ag_command(files, capsys):
    path = files("t.tab", render_table(identity_disk_bundle_table(10)))
    code, out, _ = run(capsys, "ag", path, "3", "0")
    assert code == 0
    assert "value: 3" in out
    code, out, _ = run(capsys, "ag", path, "11", "0")
    assert code == 0
    assert "coverage-caveat: yes" in out


def test_stability_sum_command(files, capsys):
    d = decorated_module((0,), IntMatrix(((1,),)), {(1,): 0, (0,): 0, (-1,): 0})
    z = decorated_module(())
    dp = files("d.mod", render_module(d))
    zp = files("z.mod", render_module(z))
    code, out, _ = run(capsys, "stability", "sum", dp, dp, zp, zp,
                       "--mode", "h2zero")
    assert code == 0
    assert "verdict: CONSISTENT" in out


def test_stability_quasi_command(files, capsys):
    x = decorated_module((0,), IntMatrix(((1,),)), {(1,): 0, (0,): 0, (-1,): 0})
    k = decorated_module((0,), None, {(0,): 0, (1,): 0, (-1,): 0})
    xp = files("x.mod", render_module(x))
    kp = files("k.mod", render_module(k))
    code, out, _ = run(capsys, "stability", "quasi", xp, xp, kp, kp)
    assert code == 0
    assert "verdict: CONSISTENT" in out


def test_equiv_bound_over_capacity_exits_2(files, capsys):
    mod = files("i4.mod", render_module(
        decorated_module((0,) * 4, IntMatrix.identity(4), {(0, 0, 0, 0): 0})))
    code, out, err = run(capsys, "equiv", mod, mod, "--bound", "50")
    assert code == 2
    assert out == ""
    assert "104060401" in err and "100000" in err


def test_bound_zero_exits_2_with_one_message(files, capsys):
    hb = files("s.hb", S2XD2_TEXT)
    mod = files("z.mod", render_module(
        decorated_module((0,), IntMatrix(((1,),)), {(0,): 0})))
    for argv in (("hihc", hb, hb), ("hihc", hb, files("e.hb", EMPTY_TEXT)),
                 ("equiv", mod, mod)):
        code, out, err = run(capsys, *argv, "--bound", "0")
        assert (code, out) == (2, ""), argv
        assert err == "kirbycalc: error: bound must be at least 1\n", argv


def test_outputs_are_deterministic(files, capsys):
    rng = random.Random(99)
    h = rand_handlebody(rng, with_fronts=True)
    path = files("d.hb", render_handlebody(h))
    _, out1, _ = run(capsys, "homology", path)
    _, out2, _ = run(capsys, "homology", path)
    assert out1 == out2


def test_exit_code_matrix(files, capsys):
    good = files("good.hb", S2XD2_TEXT)
    twisted = files("twisted.hb", TWISTED_TEXT)
    malformed = files("bad.hb", "handlebody v1\nbogus\n")
    badgen = files("badgen.hb",
                   "handlebody v1\none_handles 0\ntwo_handle 1 word=1 framing=0\n")
    mod_a = files("a.mod", render_module(
        decorated_module((0,), IntMatrix(((1,),)), {(1,): 0, (0,): 0, (-1,): 0})))
    mod_b = files("b.mod", render_module(
        decorated_module((0,), IntMatrix(((1,),)), {(1,): 7, (0,): 0, (-1,): 7})))

    cases = [
        (("homology", good), 0),
        (("boundary", good), 0),
        (("hihc", good, good), 0),
        (("equiv", mod_a, mod_a), 0),
        (("hihc", good, twisted), 1),
        (("equiv", mod_a, mod_b, "--bound", "2"), 1),
        (("homology", malformed), 2),
        (("homology", badgen), 2),
        (("homology", str(files("x", "")) + ".does-not-exist"), 2),
    ]
    for argv, expected in cases:
        code, _, _ = run(capsys, *argv)
        assert code == expected, f"{argv} -> {code}, wanted {expected}"


def _stdin(monkeypatch, data):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_stdin_reads_like_a_file(files, capsys, monkeypatch):
    _stdin(monkeypatch, S2XD2_TEXT.encode("ascii"))
    assert run(capsys, "homology", "-") == \
        run(capsys, "homology", files("s.hb", S2XD2_TEXT))


def test_stdin_follows_the_ascii_rule_of_files(tmp_path, capsys, monkeypatch):
    # U+0661 ARABIC-INDIC DIGIT ONE, which int() reads as 1
    for data in (S2XD2_TEXT.replace("framing=0", "framing=\u0661").encode(),
                 S2XD2_TEXT.encode("ascii") + b"\xff\n"):
        path = tmp_path / "non_ascii.hb"
        path.write_bytes(data)
        code, out, err = run(capsys, "homology", str(path))
        assert (code, out) == (2, "")
        assert err == f"kirbycalc: error: {path} is not ASCII text\n"
        _stdin(monkeypatch, data)
        code, out, err = run(capsys, "homology", "-")
        assert (code, out) == (2, "")
        assert err == "kirbycalc: error: stdin is not ASCII text\n"


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["kirbycalc", "cork", "1", "1", "1"])
    assert main() == 0
    assert capsys.readouterr().out == render_handlebody(mazur_cork_template(1, 1, 1))
    monkeypatch.setattr(sys, "argv", ["kirbycalc", "sum", "a.hb", "b.hb"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "one of the arguments --boundary --connected is required" in capsys.readouterr().err


def _subcommands(parser):
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_build_parser_adds_only_the_named_command():
    assert list(_subcommands(build_parser())) == list(COMMANDS)
    for argv in ([], ["-h"], ["bogus"], ["--bound", "2", "homology"]):
        assert list(_subcommands(build_parser(argv))) == list(COMMANDS)
    assert list(_subcommands(build_parser(["homology", "x.hb"]))) == ["homology"]
    stability = _subcommands(build_parser(["stability", "quasi"]))["stability"]
    assert list(_subcommands(stability)) == ["quasi"]
    stability = _subcommands(build_parser(["stability", "--help"]))["stability"]
    assert list(_subcommands(stability)) == ["sum", "quasi"]


def _command_paths():
    """The empty path, every command, and every command of a nested table."""
    paths = [()]
    for name, (_, handler, _) in COMMANDS.items():
        paths.append((name,))
        if isinstance(handler, dict):
            paths += [(name, sub) for sub in handler]
    return paths


def test_build_parser_reuses_one_parser_per_command_path():
    assert build_parser(["homology", "a.hb"]) is build_parser(["homology", "b.hb"])
    assert build_parser(["homology", "a.hb"]) is not build_parser(["info", "a.hb"])
    assert build_parser(["stability", "sum", "a", "b"]) \
        is not build_parser(["stability", "quasi", "a", "b"])
    assert build_parser(["-h"]) is build_parser(["bogus"]) is build_parser()


def test_parser_cache_holds_one_parser_per_command_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the file arguments name files that do not exist
    paths = _command_paths()
    for i in range(50):
        for path in paths:
            try:
                main([*path, f"in{i}.hb"])
            except SystemExit:
                pass
    capsys.readouterr()
    assert cli._parser.cache_info().currsize == len(paths)

"""Command-line front end.

Transformer commands (cork, wminus, wplus, steinify, sum) write the
canonical handlebody text to stdout so they pipe into the query
commands, which read "-" as stdin.  Query commands print a
machine-readable block of "key: value" lines followed by a one-line
human summary; setting KIRBYCALC_REPORT=machine suppresses the summary.

Exit codes: 0 success, 1 when a command renders a FAIL-type verdict
(hihc FAIL, equiv NOT-WITHIN-BOUND, stability VIOLATION), 2 on any
input or format error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cobordism import AttachmentModel, stability_check_quasi, trivial_ends_model
from .errors import KirbyCalcError
from .forms import algebraically_equivalent, module_hom
from .genus import (
    a_g,
    char_class_instance,
    kervaire_milnor_obstruction,
    sum_stability_check,
)
from .handlebody import (
    boundary_block_matrix,
    boundary_sum,
    connected_sum_model,
    hihc_certificate,
    homology,
    mazur_cork_template,
    w_minus,
    w_plus,
)
from .intmat import IntMatrix, cokernel_and_determinant
from .legendrian import steinify
from .textio import parse_handlebody, parse_module, parse_table, render_handlebody
from .values import OrderedValue, integer


def _read_text(path: str) -> str:
    if path == "-":
        path, data = "stdin", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError:
        raise KirbyCalcError(f"{path} is not ASCII text") from None


def _load_handlebody(path: str):
    return parse_handlebody(_read_text(path))


def _load_module(path: str):
    return parse_module(_read_text(path))


def _emit(pairs, summary: str) -> None:
    for key, value in pairs:
        print(f"{key}: {value}")
    if os.environ.get("KIRBYCALC_REPORT", "full") != "machine":
        print(f"Summary: {summary}")


def _form_text(m: IntMatrix) -> str:
    if m.rows == 0:
        return "[]"
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in m.entries) + "]"


# ---------------------------------------------------------------------------
# command handlers


def cmd_info(args) -> int:
    h = _load_handlebody(args.file)
    pairs = [
        ("one-handles", h.k),
        ("two-handles", h.n),
        ("framings", " ".join(str(t.framing) for t in h.two_handles) or "-"),
        ("fronts", sum(1 for t in h.two_handles if t.front is not None)),
        ("tags", " ".join(h.cert_tags) or "-"),
    ]
    _emit(pairs, f"{h.k} dotted handle(s), {h.n} framed 2-handle(s)")
    return 0


def cmd_homology(args) -> int:
    h = _load_handlebody(args.file)
    p = homology(h)
    pairs = [
        ("h1", p.h1),
        ("h2-rank", p.h2_rank),
        ("intersection-form", _form_text(p.intersection_form)),
        ("boundary-h1", p.boundary_h1),
    ]
    _emit(pairs, f"H1: {p.h1}, H2 rank: {p.h2_rank}, boundary H1: {p.boundary_h1}")
    return 0


def cmd_boundary(args) -> int:
    block = boundary_block_matrix(_load_handlebody(args.file))
    h1, det = cokernel_and_determinant(block)
    sphere = "yes" if abs(det) == 1 else "no"
    pairs = [
        ("boundary-h1", h1),
        ("block-determinant", det),
        ("homology-sphere", sphere),
    ]
    _emit(pairs, f"boundary H1: {h1}, block determinant {det}")
    return 0


def cmd_cork(args) -> int:
    h = mazur_cork_template(args.r, args.s, args.m)
    sys.stdout.write(render_handlebody(h))
    return 0


def cmd_w_move(args, move) -> int:
    h = _load_handlebody(args.file)
    sys.stdout.write(render_handlebody(move(h, args.idx - 1, args.p)))
    return 0


def cmd_steinify(args) -> int:
    h = _load_handlebody(args.file)
    sys.stdout.write(render_handlebody(steinify(h)))
    return 0


def cmd_sum(args) -> int:
    h1 = _load_handlebody(args.file1)
    h2 = _load_handlebody(args.file2)
    op = boundary_sum if args.boundary else connected_sum_model
    sys.stdout.write(render_handlebody(op(h1, h2)))
    return 0


def cmd_hihc(args) -> int:
    h1 = _load_handlebody(args.file1)
    h2 = _load_handlebody(args.file2)
    report = hihc_certificate(h1, h2, args.bound)
    pairs = [("verdict", report.verdict)]
    for name, ok, detail in report.checks:
        pairs.append((f"check-{name}", f"{'ok' if ok else 'FAIL'} ({detail})"))
    failing = [name for name, ok, _ in report.checks if not ok]
    if report.passed:
        summary = "PASS (necessary conditions for HIHC-equivalence)"
    else:
        summary = "FAIL: " + ", ".join(failing)
    _emit(pairs, summary)
    return 0 if report.passed else 1


def cmd_equiv(args) -> int:
    d1 = _load_module(args.table1)
    d2 = _load_module(args.table2)
    result = algebraically_equivalent(d1, d2, args.bound)
    pairs = [("verdict", result.verdict), ("bound", args.bound)]
    if result.witness is not None:
        flat = " ".join(str(x) for row in result.witness.matrix.entries for x in row)
        pairs.append(("witness", flat or "-"))
    pairs.append(("undecided-candidates", len(result.undecided)))
    if result.equivalent:
        summary = "algebraically equivalent (verified witness)"
    else:
        summary = f"no witness within bound {args.bound} (not a proof of inequivalence)"
    _emit(pairs, summary)
    return 0 if result.equivalent else 1


def cmd_ag(args) -> int:
    table = parse_table(_read_text(args.table))
    try:
        r = OrderedValue.parse(args.r)
    except ValueError as exc:
        raise KirbyCalcError(str(exc)) from None
    result = a_g(r, args.n, table)
    pairs = [
        ("value", result.value),
        ("coverage-caveat", "yes" if result.capped else "no"),
    ]
    _emit(pairs, f"lower-bound function value: {result}")
    return 0


def cmd_kmbound(args) -> int:
    d = _load_module(args.formfile)
    try:
        alpha = tuple(integer(tok) for tok in args.alpha.split(","))
    except ValueError:
        raise KirbyCalcError(f"alpha must be comma-separated integers, got {args.alpha!r}")
    inst = char_class_instance(d.form, alpha)
    result = kervaire_milnor_obstruction(inst)
    pairs = [
        ("residue", result.residue),
        ("signature", inst.sigma),
        ("positive-genus-forced", "yes" if result.positive_genus_forced else "no"),
    ]
    if result.positive_genus_forced:
        summary = f"residue {result.residue} (mod 16): positive genus forced"
    else:
        summary = f"residue {result.residue} (mod 16): no obstruction"
    _emit(pairs, summary)
    return 0


def _emit_stability(report) -> int:
    pairs = [
        ("verdict", report.verdict),
        ("mode", report.mode),
        ("before", report.before.verdict),
        ("after", report.after.verdict),
    ]
    _emit(pairs, f"{report.verdict}: before {report.before.verdict}, "
                 f"after {report.after.verdict}")
    return 0 if report.implication_ok else 1


def cmd_stability_sum(args) -> int:
    d1 = _load_module(args.x1)
    d2 = _load_module(args.x2)
    z1 = _load_module(args.z1)
    z2 = _load_module(args.z2)
    return _emit_stability(
        sum_stability_check(d1, d2, z1, z2, args.mode, args.bound))


def cmd_stability_quasi(args) -> int:
    x1 = _load_module(args.x1)
    x2 = _load_module(args.x2)
    k1 = _load_module(args.k1)
    k2 = _load_module(args.k2)
    models = []
    for x, k in ((x1, k1), (x2, k2)):
        cob = trivial_ends_model(k)
        glue = module_hom(cob.h2_m, x, IntMatrix.zeros(x.ngens, 0))
        models.append(AttachmentModel(x=x, cob=cob, glue=glue))
    return _emit_stability(
        stability_check_quasi(models[0], models[1], args.bound))


# ---------------------------------------------------------------------------
# parser

# command -> (help, handler or table of sub-commands, arguments).  An
# argument is a name, a (name, add_argument keywords) pair, or a list of
# flags of which exactly one is required.
_INT = {"type": integer}
_BOUND = ("--bound", {"type": integer, "default": 2})
_W_MOVE = ("file", ("idx", {"type": integer, "help": "1-based 2-handle id"}), ("p", _INT))

STABILITY_COMMANDS = {
    "sum": ("connected/boundary sum stability", cmd_stability_sum, (
        "x1", "x2", "z1", "z2",
        ("--mode", {"choices": ("h2zero", "nondegenerate"), "required": True}), _BOUND)),
    "quasi": ("quasi-invertible attachment stability", cmd_stability_quasi, (
        "x1", "x2", ("k1", {"help": "module file for the first K summand"}),
        ("k2", {"help": "module file for the second K summand"}), _BOUND)),
}

COMMANDS = {
    "info": ("summarize a handlebody file", cmd_info, ("file",)),
    "homology": ("H1, H2, intersection form, boundary H1", cmd_homology, ("file",)),
    "boundary": ("boundary surgery block invariants", cmd_boundary, ("file",)),
    "cork": ("emit a Mazur-type cork template", cmd_cork, (("r", _INT), ("s", _INT), ("m", _INT))),
    "wminus": ("tb-neutral canceling-pair insertion",
               lambda args: cmd_w_move(args, w_minus), _W_MOVE),
    "wplus": ("tb-raising canceling-pair insertion",
              lambda args: cmd_w_move(args, w_plus), _W_MOVE),
    "steinify": ("drive every framing to tb - 1", cmd_steinify, ("file",)),
    "hihc": ("HIHC necessary-condition certificate", cmd_hihc, ("file1", "file2", _BOUND)),
    "sum": ("boundary or connected sum of two files", cmd_sum,
            ("file1", "file2", ["--boundary", "--connected"])),
    "equiv": ("bounded algebraic equivalence of module files", cmd_equiv,
              ("table1", "table2", _BOUND)),
    "ag": ("disk-bundle lower-bound function", cmd_ag, (
        "table", ("r", {"help": "invariant value (int, inf, -inf)"}),
        ("n", {"type": integer, "help": "self-intersection number"}))),
    "kmbound": ("mod-16 characteristic-class obstruction", cmd_kmbound, (
        ("formfile", {"help": "module file carrying the form"}),
        ("alpha", {"help": "comma-separated coefficients, e.g. 3,1"}))),
    "stability": ("stability checkers", STABILITY_COMMANDS, ()),
}


def _add_commands(parser, dest, table, argv) -> None:
    """Add a subparser for each command of table, or only for argv[0] if it names one."""
    if argv and argv[0] in table:
        # usage lines of later errors still list every command
        names, rest, metavar = argv[:1], argv[1:], "{" + ",".join(table) + "}"
    else:
        names, rest, metavar = table, (), None
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name in names:
        help_text, handler, arguments = table[name]
        p = sub.add_parser(name, help=help_text)
        if isinstance(handler, dict):
            _add_commands(p, f"{name}_command", handler, rest)
            continue
        for arg in arguments:
            if isinstance(arg, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flag in arg:
                    group.add_argument(flag, action="store_true")
            else:
                arg_name, keywords = (arg, {}) if isinstance(arg, str) else arg
                p.add_argument(arg_name, **keywords)
        p.set_defaults(func=handler)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The kirbycalc parser; given argv, only with the subparsers that argv names."""
    parser = argparse.ArgumentParser(
        prog="kirbycalc",
        description="exact invariants of combinatorial 4-dimensional "
                    "2-handlebodies ('-' reads stdin)",
    )
    _add_commands(parser, "command", COMMANDS, argv or ())
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (KirbyCalcError, OSError) as exc:
        print(f"kirbycalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from .intmat import IntMatrix, determinant
from .legendrian import steinify
from .textio import parse_handlebody, parse_module, parse_table, render_handlebody
from .values import OrderedValue


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise KirbyCalcError(f"{path} is not ASCII text") from None


def _load_handlebody(path: str):
    return parse_handlebody(_read_text(path))


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
    h = _load_handlebody(args.file)
    p = homology(h)
    det = determinant(boundary_block_matrix(h))
    sphere = "yes" if abs(det) == 1 else "no"
    pairs = [
        ("boundary-h1", p.boundary_h1),
        ("block-determinant", det),
        ("homology-sphere", sphere),
    ]
    _emit(pairs, f"boundary H1: {p.boundary_h1}, block determinant {det}")
    return 0


def cmd_cork(args) -> int:
    h = mazur_cork_template(args.r, args.s, args.m)
    sys.stdout.write(render_handlebody(h))
    return 0


def cmd_w_move(args) -> int:
    h = _load_handlebody(args.file)
    sys.stdout.write(render_handlebody(args.move(h, args.idx - 1, args.p)))
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
    d1 = parse_module(_read_text(args.table1))
    d2 = parse_module(_read_text(args.table2))
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
    d = parse_module(_read_text(args.formfile))
    try:
        alpha = tuple(int(tok) for tok in args.alpha.split(","))
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
    d1 = parse_module(_read_text(args.x1))
    d2 = parse_module(_read_text(args.x2))
    z1 = parse_module(_read_text(args.z1))
    z2 = parse_module(_read_text(args.z2))
    return _emit_stability(
        sum_stability_check(d1, d2, z1, z2, args.mode, args.bound))


def cmd_stability_quasi(args) -> int:
    x1 = parse_module(_read_text(args.x1))
    x2 = parse_module(_read_text(args.x2))
    k1 = parse_module(_read_text(args.k1))
    k2 = parse_module(_read_text(args.k2))
    models = []
    for x, k in ((x1, k1), (x2, k2)):
        cob = trivial_ends_model(k)
        glue = module_hom(cob.h2_m, x, IntMatrix.zeros(x.ngens, 0))
        models.append(AttachmentModel(x=x, cob=cob, glue=glue))
    return _emit_stability(
        stability_check_quasi(models[0], models[1], args.bound))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirbycalc",
        description="exact invariants of combinatorial 4-dimensional "
                    "2-handlebodies ('-' reads stdin)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summarize a handlebody file")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("homology", help="H1, H2, intersection form, boundary H1")
    p.add_argument("file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("boundary", help="boundary surgery block invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("cork", help="emit a Mazur-type cork template")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_cork)

    p = sub.add_parser("wminus", help="tb-neutral canceling-pair insertion")
    p.add_argument("file")
    p.add_argument("idx", type=int, help="1-based 2-handle id")
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_w_move, move=w_minus)

    p = sub.add_parser("wplus", help="tb-raising canceling-pair insertion")
    p.add_argument("file")
    p.add_argument("idx", type=int, help="1-based 2-handle id")
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_w_move, move=w_plus)

    p = sub.add_parser("steinify", help="drive every framing to tb - 1")
    p.add_argument("file")
    p.set_defaults(func=cmd_steinify)

    p = sub.add_parser("hihc", help="HIHC necessary-condition certificate")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--bound", type=int, default=2)
    p.set_defaults(func=cmd_hihc)

    p = sub.add_parser("sum", help="boundary or connected sum of two files")
    p.add_argument("file1")
    p.add_argument("file2")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--boundary", action="store_true")
    group.add_argument("--connected", action="store_true")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("equiv", help="bounded algebraic equivalence of module files")
    p.add_argument("table1")
    p.add_argument("table2")
    p.add_argument("--bound", type=int, default=2)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("ag", help="disk-bundle lower-bound function")
    p.add_argument("table")
    p.add_argument("r", help="invariant value (int, inf, -inf)")
    p.add_argument("n", type=int, help="self-intersection number")
    p.set_defaults(func=cmd_ag)

    p = sub.add_parser("kmbound", help="mod-16 characteristic-class obstruction")
    p.add_argument("formfile", help="module file carrying the form")
    p.add_argument("alpha", help="comma-separated coefficients, e.g. 3,1")
    p.set_defaults(func=cmd_kmbound)

    p = sub.add_parser("stability", help="stability checkers")
    stab = p.add_subparsers(dest="stability_command", required=True)

    q = stab.add_parser("sum", help="connected/boundary sum stability")
    q.add_argument("x1")
    q.add_argument("x2")
    q.add_argument("z1")
    q.add_argument("z2")
    q.add_argument("--mode", choices=("h2zero", "nondegenerate"),
                   required=True)
    q.add_argument("--bound", type=int, default=2)
    q.set_defaults(func=cmd_stability_sum)

    q = stab.add_parser("quasi", help="quasi-invertible attachment stability")
    q.add_argument("x1")
    q.add_argument("x2")
    q.add_argument("k1", help="module file for the first K summand")
    q.add_argument("k2", help="module file for the second K summand")
    q.add_argument("--bound", type=int, default=2)
    q.set_defaults(func=cmd_stability_quasi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KirbyCalcError as exc:
        print(f"kirbycalc: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"kirbycalc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

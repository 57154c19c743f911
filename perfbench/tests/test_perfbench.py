"""Tests of the benchmark itself: its answer checks, tracer and determinism.

    python3 -m pytest perfbench/tests -q
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import hostspeed  # noqa: E402
import kirbycalc  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from kirbycalc import forms, intmat  # noqa: E402
from worker import check_op, closed_loop, run_op, trace_ops, traced_pass  # noqa: E402


def _matrix(rng, r, c):
    return [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]


def test_corrupted_smith_diagonal_counts_as_failed():
    m = _matrix(random.Random(1), 6, 5)
    snf = intmat.smith_normal_form(intmat.IntMatrix.from_rows(m, cols=5))
    workloads.check_smith(m, snf)
    rows = [list(r) for r in snf.d.entries]
    rows[0][0] += 1
    bad = intmat.SmithDecomposition(u=snf.u, d=intmat.IntMatrix.from_rows(rows, cols=5), v=snf.v)
    op = workloads.Op("snf:test", lambda: bad, lambda s: workloads.check_smith(m, s))
    _, answer, error = run_op(op)
    assert check_op(op, answer, error) is not None


def test_flipped_witness_entry_counts_as_failed():
    rng = random.Random(2)
    d1, d2 = workloads._pair(rng, 3, False, True)
    res = forms.algebraically_equivalent(d1.build(), d2.build(), 1)
    workloads.check_witness(res.witness, d1, d2, 1)
    rows = [list(r) for r in res.witness.matrix.entries]
    rows[0][0] = -rows[0][0] if rows[0][0] else 1
    flipped = forms.ModuleHom(res.witness.domain, res.witness.codomain,
                              intmat.IntMatrix.from_rows(rows, cols=3))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_witness(flipped, d1, d2, 1)


def test_wrong_cli_answer_counts_as_failed(tmp_path):
    ops = workloads.make_cycle("cli-handlebody", 3, 0, str(tmp_path))
    op = next(o for o in ops if o.kind.startswith("homology-cork"))
    code, out, err = op.run()
    assert check_op(op, (code, out, err), None) is None
    wrong = out.replace("h2-rank: 0", "h2-rank: 1")
    assert check_op(op, (code, wrong, err), None) is not None


@pytest.mark.parametrize("workload", ["cli-handlebody", "intmat-dense", "equiv-search"])
def test_first_cycle_answers_check(workload, tmp_path):
    for op in workloads.make_cycle(workload, 5, 0, str(tmp_path)):
        _, answer, error = run_op(op)
        assert check_op(op, answer, error) is None


def test_self_times_fit_in_traced_wall(tmp_path):
    ops = trace_ops("cli-handlebody", 7, 1, str(tmp_path)) + \
        trace_ops("equiv-search", 7, 1, str(tmp_path))
    tr, wall, _ = traced_pass(ops, keep_spans=True)
    total = sum(tr.self_s.values())
    assert 0 < total <= wall
    # every span lies inside its parent
    by_id = {s[0]: s for s in tr.spans}
    for sid, name, start, end, parent, op in tr.spans:
        assert start <= end
        if parent >= 0:
            p = by_id[parent]
            assert p[2] <= start and end <= p[3] and p[5] == op


def _bindings():
    return {(name, attr): val for name, mod in sys.modules.items()
            if name == "kirbycalc" or name.startswith("kirbycalc.")
            for attr, val in vars(mod).items()}


def test_tracer_restores_the_package():
    before = _bindings()
    mul, iso = intmat.IntMatrix.mul, forms.ModuleHom.is_isomorphism
    q = intmat.IntMatrix.from_rows([[2, 1], [1, 2]])
    want = forms.isometry_exists(q, q.transpose(), 1)
    tr = tracing.Tracer()
    with tr:
        assert intmat.smith_normal_form is not before[("kirbycalc.intmat", "smith_normal_form")]
        swapped = intmat.IntMatrix.from_rows([[2, -1], [-1, 2]])
        assert forms.isometry_exists(q, swapped, 1) is not None
    # the function-local import inside isometry_exists reached the wrapper
    assert tr.calls["intmat.signature"] == 2
    assert _bindings() == before
    assert intmat.IntMatrix.mul is mul and forms.ModuleHom.is_isomorphism is iso
    assert forms.isometry_exists(q, q.transpose(), 1).equals(want)
    assert kirbycalc.smith_normal_form is intmat.smith_normal_form


def test_exact_counts_repeat_per_seed(tmp_path):
    def counts(seed):
        tr, _, _ = traced_pass(trace_ops("equiv-search", seed, 1, str(tmp_path)), False)
        return tr.exact_counts()

    first = counts(11)
    assert first["forms.iter_isometries.leaves"] > 0
    assert counts(11) == first
    assert counts(12) != first


def test_clock_scales_to_reference_speed():
    clock = hostspeed.Clock()
    assert len(clock.samples) == 3 and clock.ref > 0
    assert clock.scale(clock.ref) == pytest.approx(hostspeed.REF_S)


def test_closed_loop_counts_unstable_answers_as_failed(tmp_path, monkeypatch):
    answers = iter(range(10**6))
    unstable = workloads.Op("unstable", lambda: next(answers), lambda x: None)
    monkeypatch.setattr(workloads, "make_cycle", lambda *args: [unstable])
    res = closed_loop("equiv-search", 1, 0.2, str(tmp_path))
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]
    assert "repeated runs gave different answers" in res["failures"][0]


def test_closed_loop_passes_a_short_run(tmp_path):
    res = closed_loop("equiv-search", 3, 0.5, str(tmp_path))
    assert res["failed"] == 0 and res["attempted"] >= 10
    assert 0 < res["latency_p50_ms"] <= res["latency_p90_ms"]

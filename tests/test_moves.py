"""Move corpus: the handlebody moves on seeded random handlebodies.

moves.json holds one row per case: an input handlebody file, the moves
applied to it in order, and the outcome, which is either the canonical
rendering of the result with its certificate tags or the exact error.
The inputs are drawn from a fixed seed, so rerunning the generator
rebuilds the same rows.  After an intended change of outcome, rewrite
the corpus with

    PYTHONPATH=src python -m tests.test_moves
"""

import json
import random
from pathlib import Path

import pytest

from kirbycalc.errors import KirbyCalcError
from kirbycalc.handlebody import (
    attach_canceling_pairs,
    attach_one_handle,
    attach_two_handles_zero_framed,
    boundary_sum,
    connected_sum_model,
    handlebody,
    mazur_cork_template,
    w_minus,
    w_plus,
)
from kirbycalc.intmat import IntMatrix
from kirbycalc.legendrian import steinify
from kirbycalc.textio import parse_handlebody, render_handlebody

from .gens import rand_front

CORPUS = Path(__file__).parent / "moves.json"
MOVES = {
    "w_minus": w_minus,
    "w_plus": w_plus,
    "steinify": steinify,
    "attach_canceling_pairs": attach_canceling_pairs,
    "attach_two_handles_zero_framed": attach_two_handles_zero_framed,
    "attach_one_handle": attach_one_handle,
}
SUMS = {"boundary_sum": boundary_sum, "connected_sum_model": connected_sum_model}
OUTCOME_KEYS = ("error", "rendered", "cert_tags")


def _apply(h, step):
    """One step: a move with its arguments, or a sum with a cork."""
    move = step["move"]
    if move in SUMS:
        cork = mazur_cork_template(*step["cork"])
        return SUMS[move](*((cork, h) if step["cork_first"] else (h, cork)))
    return MOVES[move](h, *step.get("args", ()), **step.get("kwargs", {}))


def _outcome(row):
    h = parse_handlebody(row["input"])
    try:
        for step in row["steps"]:
            h = _apply(h, step)
    except KirbyCalcError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"rendered": render_handlebody(h), "cert_tags": list(h.cert_tags)}


def _rows():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("row", _rows(), ids=[r["name"] for r in _rows()])
def test_move_outcome(row):
    want = {k: row[k] for k in OUTCOME_KEYS if k in row}
    assert _outcome(row) == want


def test_row_names_are_unique():
    names = [r["name"] for r in _rows()]
    assert len(names) == len(set(names))


def test_corpus_covers_every_move_and_both_outcomes():
    rows = _rows()
    used = {step["move"] for r in rows for step in r["steps"]}
    assert used == set(MOVES) | set(SUMS)
    assert any("error" in r for r in rows)
    assert any("rendered" in r for r in rows)


# ---------------------------------------------------------------------------
# generator


def _rand_word(rng, k, max_len=4):
    return [rng.choice((1, -1)) * rng.randint(1, k)
            for _ in range(rng.randint(0, max_len))]


def _rand_input(rng):
    """1-6 dotted handles, 2-8 2-handles, a front on every 2-handle and
    random linking."""
    k = rng.randint(1, 6)
    n = rng.randint(2, 8)
    framings = [rng.randint(-4, 4) for _ in range(n)]
    rows = [[framings[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((0, 0, -2, -1, 1, 2))
    return handlebody(k, [(tuple(_rand_word(rng, k)), framings[i], rand_front(rng))
                          for i in range(n)], IntMatrix.from_rows(rows, cols=n))


def _generate():
    rng = random.Random(20261018)
    rows = []

    def add(name, h, *steps):
        rows.append({"name": name, "input": render_handlebody(h),
                     "steps": list(steps)})

    def cork():
        return [rng.randint(1, 3) for _ in range(3)]

    inputs = [_rand_input(rng) for _ in range(8)]
    for i, h in enumerate(inputs):
        add(f"w_minus_{i}", h, {"move": "w_minus",
                                "args": [rng.randrange(h.n), rng.randint(1, 3)]})
        add(f"w_plus_{i}", h, {"move": "w_plus",
                               "args": [rng.randrange(h.n), rng.randint(1, 3)]})
        add(f"steinify_{i}", h, {"move": "steinify"})
        add(f"canceling_pairs_{i}", h, {"move": "attach_canceling_pairs",
                                        "args": [i % 4]})
        words = [_rand_word(rng, h.k) for _ in range(rng.randint(1, 3))]
        add(f"zero_framed_{i}", h, {"move": "attach_two_handles_zero_framed",
                                    "args": [words],
                                    "kwargs": {"slice_marked": i == 0}})
        add(f"one_handle_{i}", h, {"move": "attach_one_handle"})
        add(f"boundary_sum_{i}", h, {"move": "boundary_sum", "cork": cork(),
                                     "cork_first": i % 2 == 1})
        add(f"connected_sum_{i}", h, {"move": "connected_sum_model",
                                      "cork": cork(), "cork_first": i % 2 == 0})

    add("chain_w_plus_one_handle_boundary_sum", inputs[0],
        {"move": "w_plus", "args": [1, 2]},
        {"move": "attach_one_handle"},
        {"move": "boundary_sum", "cork": [1, 1, 1], "cork_first": False})
    add("chain_w_plus_steinify", inputs[1],
        {"move": "w_plus", "args": [0, 3]},
        {"move": "steinify"})
    add("chain_pairs_zero_framed_connected_sum", inputs[2],
        {"move": "attach_canceling_pairs", "args": [2]},
        {"move": "attach_two_handles_zero_framed", "args": [[[1, -1], []]],
         "kwargs": {"slice_marked": True}},
        {"move": "connected_sum_model", "cork": [2, 1, 3], "cork_first": True})

    # one 2-handle without a front
    bare = list(inputs[3].two_handles)
    bare[1] = (bare[1].word, bare[1].framing)
    no_front = handlebody(inputs[3].k, bare, inputs[3].linking)
    add("w_plus_target_without_front", no_front,
        {"move": "w_plus", "args": [1, 2]})
    add("w_minus_target_without_front", no_front,
        {"move": "w_minus", "args": [1, 1]})

    add("error_w_minus_target_past_end", inputs[4],
        {"move": "w_minus", "args": [inputs[4].n, 1]})
    add("error_w_plus_negative_target", inputs[5],
        {"move": "w_plus", "args": [-1, 2]})
    add("error_w_minus_p_zero", inputs[6], {"move": "w_minus", "args": [0, 0]})
    add("error_w_plus_p_zero", inputs[7], {"move": "w_plus", "args": [0, 0]})
    add("error_steinify_without_front", no_front, {"move": "steinify"})
    add("error_canceling_pairs_negative", inputs[0],
        {"move": "attach_canceling_pairs", "args": [-1]})
    add("error_zero_framed_unknown_one_handle", inputs[1],
        {"move": "attach_two_handles_zero_framed",
         "args": [[[inputs[1].k + 1]]]})
    add("error_steinify_after_w_minus", inputs[1],
        {"move": "w_minus", "args": [0, 3]},
        {"move": "steinify"})
    add("error_after_valid_move", inputs[2],
        {"move": "w_plus", "args": [0, 1]},
        {"move": "w_minus", "args": [inputs[2].n + 1, 1]})
    return rows


if __name__ == "__main__":
    rows = [{**r, **_outcome(r)} for r in _generate()]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")

import random

import pytest

from kirbycalc.errors import PreconditionError
from kirbycalc.handlebody import (
    attach_one_handle,
    boundary_sum,
    handlebody,
    homology,
    profiles_isomorphic,
    replace_front,
    w_plus,
)
from kirbycalc.legendrian import (
    UNKNOT_FRONT,
    FrontCounts,
    rotation,
    stabilize,
    steinify,
    thurston_bennequin,
)
from kirbycalc.textio import render_handlebody

from .gens import rand_front, rand_handlebody


def test_tb_examples():
    assert thurston_bennequin(UNKNOT_FRONT) == -1
    assert thurston_bennequin(FrontCounts(3, 1, 1, 1)) == 2


def test_rotation_examples():
    assert rotation(UNKNOT_FRONT) == 0
    assert rotation(stabilize(UNKNOT_FRONT, +1)) == 1
    assert rotation(stabilize(UNKNOT_FRONT, -1)) == -1


def test_stabilize_examples():
    plus = stabilize(UNKNOT_FRONT, +1)
    assert thurston_bennequin(plus) == -2 and rotation(plus) == 1
    minus = stabilize(UNKNOT_FRONT, -1)
    assert thurston_bennequin(minus) == -2 and rotation(minus) == -1


def test_stabilize_drops_tb_by_n():
    rng = random.Random(8)
    for _ in range(20):
        f = rand_front(rng)
        t0 = thurston_bennequin(f)
        n = rng.randint(1, 5)
        for _ in range(n):
            f = stabilize(f, rng.choice((1, -1)))
        assert thurston_bennequin(f) == t0 - n


def test_stabilize_preserves_invariants_and_parity():
    rng = random.Random(21)
    for _ in range(30):
        f = rand_front(rng)
        parity = (thurston_bennequin(f) + rotation(f)) % 2
        g = stabilize(f, rng.choice((1, -1)))
        assert g.up_cusps + g.down_cusps == 2 * g.right_cusps
        # tb + rot changes by -1 +- 1, so its parity is fixed
        assert (thurston_bennequin(g) + rotation(g)) % 2 == parity


def test_front_invariants_enforced():
    with pytest.raises(PreconditionError):
        FrontCounts(writhe=0, right_cusps=0, up_cusps=0, down_cusps=0)
    with pytest.raises(PreconditionError):
        FrontCounts(writhe=0, right_cusps=1, up_cusps=1, down_cusps=2)
    with pytest.raises(PreconditionError):
        stabilize(UNKNOT_FRONT, 2)


# ---------------------------------------------------------------------------
# steinify


def test_steinify_stabilization_case():
    # framing -5, tb -1: three stabilizations, final tb -4
    h = handlebody(0, [((), -5, UNKNOT_FRONT)])
    out = steinify(h)
    assert len(out.two_handles) == 1
    th = out.two_handles[0]
    assert th.framing == -5
    assert thurston_bennequin(th.front) == -4
    assert th.framing == thurston_bennequin(th.front) - 1


def test_steinify_raising_case():
    # framing 3, tb -1: one raise with p = 3 - (-1) + 1 = 5
    h = handlebody(0, [((), 3, UNKNOT_FRONT)])
    out = steinify(h)
    assert len(out.two_handles) == 2  # one fresh handle was introduced
    first = out.two_handles[0]
    assert first.framing == 3
    assert thurston_bennequin(first.front) == 4
    fresh = out.two_handles[1]
    assert fresh.framing == 0
    assert thurston_bennequin(fresh.front) == 1  # tb 2 minus one stabilization
    assert fresh.framing == thurston_bennequin(fresh.front) - 1


def test_steinify_fixed_point():
    stein = FrontCounts(writhe=1, right_cusps=1, up_cusps=1, down_cusps=1)
    h = handlebody(0, [((), thurston_bennequin(stein) - 1, stein)])
    assert steinify(h) == h


def test_steinify_requires_fronts():
    h = handlebody(0, [((), 0)])
    with pytest.raises(PreconditionError):
        steinify(h)


def test_steinify_random_suite():
    rng = random.Random(35)
    for _ in range(40):
        h = rand_handlebody(rng, with_fronts=True)
        out = steinify(h)
        for th in out.two_handles:
            assert th.framing == thurston_bennequin(th.front) - 1
        # framings of the original handles never change
        for i, th in enumerate(h.two_handles):
            assert out.two_handles[i].framing == th.framing
        # each handle with framing >= tb received exactly one fresh handle
        raises = sum(
            1 for th in h.two_handles
            if th.framing >= thurston_bennequin(th.front)
        )
        assert len(out.two_handles) == len(h.two_handles) + raises
        assert profiles_isomorphic(homology(h), homology(out))
        assert steinify(out) == out


def _steinify_by_moves(h):
    """steinify as one public move per step: replace_front for each
    stabilized handle and w_plus for each raise, fresh handles included."""
    current = h
    i = 0
    while i < current.n:
        th = current.two_handles[i]
        t = thurston_bennequin(th.front)
        if th.framing <= t - 1:
            front = th.front
            for s in range(t - 1 - th.framing):
                front = stabilize(front, 1 if s % 2 == 0 else -1)
            current = replace_front(current, i, front)
        else:
            current = w_plus(current, i, th.framing - t + 1)
        i += 1
    return current


def test_steinify_builds_what_the_moves_one_by_one_build():
    rng = random.Random(73)
    raises = set()
    tagged = 0
    for _ in range(320):
        h = rand_handlebody(rng, max_k=3, max_n=6, max_entry=4, with_fronts=True)
        for _ in range(rng.randint(0, 2)):
            if h.n:
                h = w_plus(h, rng.randrange(h.n), rng.randint(1, 3))
        if rng.random() < 0.3:
            h = boundary_sum(h, rand_handlebody(rng, max_n=2, with_fronts=True))
        if rng.random() < 0.3:
            h = attach_one_handle(h)
        out, want = steinify(h), _steinify_by_moves(h)
        # Handlebody2 equality ignores cert_tags, so compare them apart
        assert render_handlebody(out) == render_handlebody(want)
        assert out.cert_tags == want.cert_tags
        assert out == want
        raises.add(min(out.n - h.n, 2))
        tagged += bool(h.cert_tags)
    assert raises == {0, 1, 2}
    assert tagged > 100


def test_front_counts_must_be_integral():
    counts = dict(writhe=0, right_cusps=1, up_cusps=1, down_cusps=1)
    assert FrontCounts(**counts) == UNKNOT_FRONT
    for name in counts:
        for bad in (0.5, 1.0, "3"):
            with pytest.raises(TypeError):
                FrontCounts(**{**counts, name: bad})

"""Combinatorial Legendrian front bookkeeping.

A front is stored as counts only (writhe and cusp counts), which is
enough for every formula used here: the Thurston-Bennequin number,
the rotation number, zig-zag stabilizations and their effect under the
tb-raising diagram move.  The Stein framing condition for an attaching
circle is framing = tb - 1, and steinify() drives every 2-handle of a
decorated handlebody to that condition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import index

from .errors import PreconditionError


@dataclass(frozen=True)
class FrontCounts:
    """Writhe and cusp counts of a Legendrian front diagram.

    A closed front has as many left cusps as right cusps, and each cusp
    points up or down, so up_cusps + down_cusps = 2 * right_cusps and
    right_cusps >= 1.
    """

    writhe: int
    right_cusps: int
    up_cusps: int
    down_cusps: int

    def __post_init__(self):
        for name in ("writhe", "right_cusps", "up_cusps", "down_cusps"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.right_cusps < 1:
            raise PreconditionError("a front needs at least one right cusp")
        if self.up_cusps < 0 or self.down_cusps < 0:
            raise PreconditionError("cusp counts must be non-negative")
        if self.up_cusps + self.down_cusps != 2 * self.right_cusps:
            raise PreconditionError(
                "up_cusps + down_cusps must equal 2 * right_cusps"
            )


#: front of the standard Legendrian unknot (tb = -1, rotation 0)
UNKNOT_FRONT = FrontCounts(writhe=0, right_cusps=1, up_cusps=1, down_cusps=1)


def thurston_bennequin(f: FrontCounts) -> int:
    """tb = writhe minus right cusps."""
    return f.writhe - f.right_cusps


def rotation(f: FrontCounts) -> int:
    """Rotation number: half the signed cusp imbalance, which is even."""
    return (f.down_cusps - f.up_cusps) // 2


def stabilize(f: FrontCounts, sign: int) -> FrontCounts:
    """Add one zig-zag.  tb drops by 1, rotation changes by sign."""
    if sign not in (1, -1):
        raise PreconditionError("stabilization sign must be +1 or -1")
    return FrontCounts(
        writhe=f.writhe,
        right_cusps=f.right_cusps + 1,
        up_cusps=f.up_cusps + (2 if sign == -1 else 0),
        down_cusps=f.down_cusps + (2 if sign == 1 else 0),
    )


def _stabilized(f: FrontCounts, count: int) -> FrontCounts:
    """count zig-zags with alternating signs, starting positive (keeping
    the rotation number small)."""
    sign = 1
    for _ in range(count):
        f = stabilize(f, sign)
        sign = -sign
    return f


def steinify(h):
    """Rework a Legendrian handlebody so every framing equals tb - 1.

    Per 2-handle with framing f and Thurston-Bennequin number t:

    * f <= t - 1: apply t - 1 - f stabilizations with alternating signs
      (starting positive, keeping the rotation number small);
    * f >= t: one tb-raising modification with p = f - t + 1, after
      which f = tb - 1 exactly.

    The tb-raising move never changes any framing; the fresh 2-handle
    it introduces (framing 0, tb = +2, rotation left at 0) is
    processed by the same rule, which stabilizes it once.  The homology
    profile of the result is isomorphic to the input's, and the
    operation is idempotent.  All raising moves are collected first and
    the result is built once, as the same sequence of w_plus moves
    would build it.

    Every 2-handle must already carry front data.
    """
    from .handlebody import W_PLUS_FRONT, _insert_pairs

    for idx, th in enumerate(h.two_handles):
        if th.front is None:
            raise PreconditionError(f"2-handle {idx} carries no front data")

    handles = []
    raises = []
    for i, th in enumerate(h.two_handles):
        t = thurston_bennequin(th.front)
        if th.framing <= t - 1:
            th = replace(th, front=_stabilized(th.front, t - 1 - th.framing))
        else:
            raises.append((i, th.framing - t + 1))
        handles.append(th)
    # framing 0 <= tb - 1 = 1: the fresh front takes the stabilizing rule
    fresh = _stabilized(W_PLUS_FRONT, thurston_bennequin(W_PLUS_FRONT) - 1)
    return _insert_pairs(replace(h, two_handles=tuple(handles)), raises, fresh)

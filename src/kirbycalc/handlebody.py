"""Combinatorial 4-dimensional 2-handlebodies.

A handlebody is one 0-handle, k dotted 1-handles and n framed 2-handles.
Each 2-handle records its attaching word (the sequence of signed
1-handle run-overs), its framing, and optionally a Legendrian front.
The dotted circles form a 0-linked unlink in standard position, so all
the geometric linking data that a word cannot determine lives in the
symmetric n x n linking matrix, whose diagonal is the framing vector.

Homology is read off exactly: with A the k x n run-over matrix,
H_1 = coker A, H_2 = ker A (saturated), the intersection form is the
linking matrix restricted to the kernel, and H_1 of the boundary is the
cokernel of the surgery block matrix [[0, A], [A^T, linking]] obtained
by trading every dot for a 0-framed circle.  homology() reads all four,
and the block's determinant, from one Smith elimination U A V = D: the
block is congruent to [[0, D], [D^T, V^T linking V]], each of the u
unit divisors splits off a [[0, 1], [1, 0]] summand of determinant -1,
boundary H_1 is the cokernel of what is left, and the block determinant
is (-1)^u times its determinant (Gompf-Stipsicz, 4-Manifolds and Kirby
Calculus, 5.3).

The diagram modifications implemented here (the tb-raising and
tb-neutral moves that insert a homotopically canceling handle pair, the
Mazur-type cork templates, zero-framed attachments along slice-marked
links, and the two kinds of sums) realize their handle-structure
contracts; the profile-isomorphism postconditions are enforced by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import index

from .errors import PreconditionError
from .forms import isometry_exists
from .intmat import (
    FgAbelianGroup,
    IntMatrix,
    _column_smith,
    _replayed,
    block_diag,
    cokernel,
    determinant,
)
from .legendrian import FrontCounts

#: certificate tags attached by the cobordism-style constructions
TAG_ONE_HANDLE = "one-handles"
TAG_CANCELING_PAIRS = "canceling-pairs"
TAG_SLICE_TWO_HANDLES = "slice-zero-framed-two-handles"
TAG_BOUNDARY_SUM = "boundary-sum"
TAG_CONNECTED_SUM = "connected-sum"


@dataclass(frozen=True)
class TwoHandle:
    word: tuple
    framing: int
    front: FrontCounts | None = None

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(map(index, self.word)))
        object.__setattr__(self, "framing", index(self.framing))


@dataclass(frozen=True)
class Handlebody2:
    """Dotted 1-handles plus framed 2-handles with a linking matrix."""

    one_handles: int
    two_handles: tuple
    linking: IntMatrix
    cert_tags: tuple = field(default=(), compare=False)

    @property
    def n(self) -> int:
        return len(self.two_handles)

    @property
    def k(self) -> int:
        return self.one_handles


def handlebody(one_handles, two_handles=(), linking=None,
               cert_tags=()) -> Handlebody2:
    """Validating constructor.

    two_handles entries are TwoHandle values or (word, framing) /
    (word, framing, front) tuples.  linking defaults to the diagonal
    framing matrix; when given, it must be symmetric with the framings
    on the diagonal, and every word letter must name an existing dotted
    handle.
    """
    k = index(one_handles)
    if k < 0:
        raise PreconditionError("negative number of 1-handles")
    handles = []
    for th in two_handles:
        if not isinstance(th, TwoHandle):
            th = TwoHandle(*th)
        handles.append(th)
    n = len(handles)
    for idx, th in enumerate(handles):
        for letter in th.word:
            if letter == 0 or abs(letter) > k:
                raise PreconditionError(
                    f"2-handle {idx} runs over unknown 1-handle {letter}"
                )
    if linking is None:
        linking = IntMatrix.from_diagonal(th.framing for th in handles)
    if linking.shape() != (n, n):
        raise PreconditionError(f"linking matrix must be {n}x{n}")
    if not linking.is_symmetric():
        raise PreconditionError("linking matrix must be symmetric")
    for i, th in enumerate(handles):
        if linking[i, i] != th.framing:
            raise PreconditionError(
                f"linking diagonal {linking[i, i]} != framing {th.framing} "
                f"on 2-handle {i}"
            )
    return Handlebody2(one_handles=k, two_handles=tuple(handles),
                       linking=linking, cert_tags=tuple(cert_tags))


def empty_handlebody() -> Handlebody2:
    """The 4-ball: no handles at all."""
    return handlebody(0)


def run_over_matrix(h: Handlebody2) -> IntMatrix:
    """k x n matrix of signed run-over counts (exponent sums)."""
    rows = [[0] * h.n for _ in range(h.k)]
    for j, th in enumerate(h.two_handles):
        for x in th.word:
            rows[abs(x) - 1][j] += 1 if x > 0 else -1
    return IntMatrix.from_rows(rows, cols=h.n)


def boundary_block_matrix(h: Handlebody2) -> IntMatrix:
    """Linking matrix of the boundary surgery diagram.

    Dotted circles become 0-framed circles: the block is
    [[0, A], [A^T, linking]] of size (k + n) x (k + n).
    """
    a = run_over_matrix(h)
    return IntMatrix.from_rows(
        [(0,) * h.k + row for row in a.entries]
        + [col + row for col, row in zip(a.transpose().entries, h.linking.entries)],
        cols=h.k + h.n)


@dataclass(frozen=True)
class HomologyProfile:
    h1: FgAbelianGroup
    h2_rank: int
    h2_basis: IntMatrix
    intersection_form: IntMatrix
    boundary_h1: FgAbelianGroup
    boundary_determinant: int


def homology(h: Handlebody2) -> HomologyProfile:
    """H_1, H_2, the form, boundary H_1 and the determinant of the
    boundary block, all from one Smith elimination of the run-over
    matrix A.

    With U A V = D, the congruence diag(U, V^T) turns the boundary block
    into [[0, D], [D^T, V^T L V]], and each unit divisor of D splits off a
    unimodular [[0, 1], [1, 0]] summand.  So only V_J, the columns of V
    past the u unit divisors, is built; L~ = V_J^T L V_J is the linking
    matrix in that basis, boundary H_1 is the cokernel of
    [[0, D'], [D'^T, L~]] for D' the (k - u) x (n - u) diagonal of the
    non-unit divisors, and its determinant times (-1)^u is that of the
    boundary block.  The kernel columns of V, the trailing columns of
    V_J, carry the intersection form as L~'s trailing corner.
    """
    diag, ops, h1 = _column_smith(run_over_matrix(h))
    units = diag.count(1)
    rank = sum(1 for d in diag if d != 0)
    vjt = _replayed(ops, h.n, units)
    vj = vjt.transpose()
    lt = vjt.mul(h.linking).mul(vj)
    m, r, size = h.k - units, rank - units, h.n - units
    block = [[0] * (m + size) for _ in range(m)]
    block += [[0] * m + list(row) for row in lt.entries]
    for i, d in enumerate(diag[units:]):
        block[i][m + i] = block[m + i][i] = d
    block = IntMatrix.from_rows(block, cols=m + size)
    return HomologyProfile(
        h1=h1,
        h2_rank=size - r,
        h2_basis=IntMatrix._unchecked(tuple(row[r:] for row in vj.entries), size - r),
        intersection_form=IntMatrix._unchecked(
            tuple(row[r:] for row in lt.entries[r:]), size - r),
        boundary_h1=cokernel(block),
        boundary_determinant=(-1) ** units * determinant(block),
    )


def profiles_isomorphic(p1: HomologyProfile, p2: HomologyProfile,
                        bound: int = 2) -> bool:
    """The computable isomorphism test on two homology profiles: every
    HIHC check holds."""
    return all(ok for _, ok, _ in _profile_checks(p1, p2, bound))


# ---------------------------------------------------------------------------
# templates and moves


def mazur_cork_template(r: int, s: int, m: int) -> Handlebody2:
    """Mazur-type contractible handlebody parameterized by (r, s, m).

    One dotted handle and one 0-framed 2-handle whose word has exponent
    sum +1, so the pair cancels algebraically: H_1 and H_2 vanish and
    the boundary surgery block has determinant -1, a homology sphere.
    The letter pattern carries (r, s, m); the literal crossing data of
    the corresponding diagrams is not modeled.
    """
    for name, val in (("r", r), ("s", s), ("m", m)):
        if val < 1:
            raise PreconditionError(f"parameter {name} must be >= 1")
    word = [1]
    word += [1] * r + [-1] * r
    word += [-1] * s + [1] * s
    word += [1] * m + [-1] * m
    return handlebody(1, [(tuple(word), 0)])


#: front of the 2-handle that w_plus inserts (tb = +2, rotation 0)
W_PLUS_FRONT = FrontCounts(writhe=3, right_cusps=1, up_cusps=1, down_cusps=1)


def _insert_pairs(h: Handlebody2, pairs, new_front: FrontCounts | None) -> Handlebody2:
    """Common engine of the canceling-pair insertions, built once.

    pairs lists (target, p) in order.  The i-th adds dotted handle
    g = k + i and a 0-framed 2-handle with word (+g) and front
    new_front; the target word (when not None) gains the net-zero
    subword (+g, -g) repeated p times at its end, and, when a new front
    is given, the target's tb rises by p.  The new handles are unlinked,
    so the homology profile is untouched.  Each pair adds one
    canceling-pairs tag.
    """
    handles = list(h.two_handles)
    for g, (target, p) in enumerate(pairs, start=h.k + 1):
        if target is not None:
            if not 0 <= target < h.n:
                raise PreconditionError(f"no 2-handle with index {target}")
            th = handles[target]
            front = th.front
            if new_front is not None and front is not None:
                front = replace(front, writhe=front.writhe + p)
            handles[target] = replace(th, word=th.word + (g, -g) * p, front=front)
        handles.append(TwoHandle(word=(g,), framing=0, front=new_front))
    c = len(pairs)
    return handlebody(h.k + c, handles, block_diag(h.linking, IntMatrix.zeros(c, c)),
                      cert_tags=h.cert_tags + (TAG_CANCELING_PAIRS,) * c)


def w_minus(h: Handlebody2, target: int, p: int) -> Handlebody2:
    """tb-neutral canceling-pair insertion at the given 2-handle.

    Adds a homotopically canceling 1-/2-handle pair; the target word
    gains p net-zero run-overs of the new handle and keeps its framing.
    The homology profile of the result is isomorphic to the input's.
    """
    if p < 1:
        raise PreconditionError("p must be >= 1")
    return _insert_pairs(h, [(target, p)], None)


def w_plus(h: Handlebody2, target: int, p: int) -> Handlebody2:
    """tb-raising variant of the canceling-pair insertion.

    Handle-structure effect identical to the tb-neutral move (the two
    results are homeomorphic models related by a cork twist), but the
    Legendrian bookkeeping changes: the target's Thurston-Bennequin
    number increases by p, and the new 2-handle carries W_PLUS_FRONT,
    with tb = +2.  Its rotation number is left at 0, a convention
    rather than a forced value.  No framing changes.
    """
    if p < 1:
        raise PreconditionError("p must be >= 1")
    return _insert_pairs(h, [(target, p)], W_PLUS_FRONT)


def replace_front(h: Handlebody2, target: int, front: FrontCounts) -> Handlebody2:
    if not 0 <= target < h.n:
        raise PreconditionError(f"no 2-handle with index {target}")
    handles = list(h.two_handles)
    handles[target] = replace(handles[target], front=front)
    return replace(h, two_handles=tuple(handles))


def attach_two_handles_zero_framed(h: Handlebody2, words,
                                   slice_marked: bool = False) -> Handlebody2:
    """Attach unlinked 0-framed 2-handles along the given words.

    When slice_marked is set, the caller asserts the attaching link is
    strongly slice and the result carries the corresponding
    quasi-invertibility certificate tag.
    """
    words = [tuple(map(index, w)) for w in words]
    new = len(words)
    handles = list(h.two_handles) + [TwoHandle(word=w, framing=0) for w in words]
    linking = block_diag(h.linking, IntMatrix.zeros(new, new))
    tags = h.cert_tags + ((TAG_SLICE_TWO_HANDLES,) if slice_marked else ())
    return handlebody(h.k, handles, linking, cert_tags=tags)


def attach_one_handle(h: Handlebody2) -> Handlebody2:
    """Attach one dotted handle along the (connected) boundary."""
    return handlebody(h.k + 1, h.two_handles, h.linking,
                      cert_tags=h.cert_tags + (TAG_ONE_HANDLE,))


def attach_canceling_pairs(h: Handlebody2, count: int) -> Handlebody2:
    """Attach homotopically canceling 1-/2-handle pairs.

    Leaves the homology profile isomorphic (each pair contributes a
    unimodular hyperbolic block to the boundary matrix and nothing to
    H_1, H_2 or the form).
    """
    if count < 0:
        raise PreconditionError("count must be non-negative")
    return _insert_pairs(h, [(None, 0)] * count, None)


def _shift_word(word, offset):
    return tuple(x + offset if x > 0 else x - offset for x in word)


def _block_sum(h1: Handlebody2, h2: Handlebody2, tag: str) -> Handlebody2:
    handles = list(h1.two_handles) + [
        replace(th, word=_shift_word(th.word, h1.k)) for th in h2.two_handles]
    return handlebody(h1.k + h2.k, handles,
                      block_diag(h1.linking, h2.linking),
                      cert_tags=h1.cert_tags + h2.cert_tags + (tag,))


def boundary_sum(h1: Handlebody2, h2: Handlebody2) -> Handlebody2:
    """Boundary sum: handle data concatenates, profiles add blockwise."""
    return _block_sum(h1, h2, TAG_BOUNDARY_SUM)


def connected_sum_model(h1: Handlebody2, h2: Handlebody2) -> Handlebody2:
    """Algebraic model of the interior connected sum; same block sum."""
    return _block_sum(h1, h2, TAG_CONNECTED_SUM)


# ---------------------------------------------------------------------------
# HIHC necessary conditions


@dataclass(frozen=True)
class HihcReport:
    """Checkable necessary conditions for HIHC-equivalence.

    PASS means every computable necessary condition holds; it never
    asserts HIHC-equivalence itself.
    """

    verdict: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _profile_checks(p1: HomologyProfile, p2: HomologyProfile,
                    bound: int) -> tuple:
    """The HIHC necessary conditions on two profiles, as (name, ok, detail)."""
    iso = isometry_exists(p1.intersection_form, p2.intersection_form, bound)
    detail = (f"within bound {bound}" if p1.h2_rank == p2.h2_rank
              else "rank mismatch")
    return (
        ("h1-groups-equal", p1.h1 == p2.h1, f"{p1.h1} vs {p2.h1}"),
        ("h2-ranks-equal", p1.h2_rank == p2.h2_rank,
         f"{p1.h2_rank} vs {p2.h2_rank}"),
        ("intersection-forms-isometric", iso is not None, detail),
        ("boundary-h1-groups-equal", p1.boundary_h1 == p2.boundary_h1,
         f"{p1.boundary_h1} vs {p2.boundary_h1}"),
    )


def hihc_certificate(h1: Handlebody2, h2: Handlebody2,
                     bound: int = 2) -> HihcReport:
    checks = _profile_checks(homology(h1), homology(h2), bound)
    verdict = "PASS" if all(ok for _, ok, _ in checks) else "FAIL"
    return HihcReport(verdict=verdict, checks=checks)


def is_homology_sphere_boundary(h: Handlebody2) -> bool:
    """|det| of the square boundary block is 1 exactly when its cokernel,
    boundary H1, is trivial."""
    return homology(h).boundary_h1.is_trivial

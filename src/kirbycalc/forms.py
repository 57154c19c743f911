"""Split modules with symmetric forms and genus-style value tables.

The central objects are finitely generated Z-modules carrying a
symmetric integer form and a finite, partial table of ordered values on
homology-class coefficient vectors.  On top of those sit the splitting
constructions for a direct sum A (+) B where the form lives entirely on
the A summand: projecting a form-preserving isomorphism of the sums to
its A- and B-components, and checking that value tables survive the
projection.  A bounded brute-force isometry search backs the algebraic
equivalence decisions; indefinite forms have infinite isometry groups,
so a negative answer is only ever "not within bound".

Torsion is represented by extra generators with a diagonal relation
matrix; coefficient vectors are reduced to canonical residues before
any table lookup, so key equality is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import index, mul

from .errors import (
    CapacityError,
    DimensionError,
    InternalCheckError,
    PreconditionError,
    VerificationError,
)
from .intmat import (
    FgAbelianGroup,
    IntMatrix,
    block_diag,
    cokernel,
    determinant,
    signature,
    with_relations,
)
from .values import OrderedValue

SEARCH_RANK_LIMIT = 4
# candidate columns, (2 * bound + 1)^ngens, one search may build
SEARCH_CANDIDATE_LIMIT = 10**5


def canonical_key(orders, vec):
    """Reduce a coefficient vector to its canonical residue representative.

    Coefficients must be integers; floats and strings raise TypeError.
    """
    if len(vec) != len(orders):
        raise DimensionError(
            f"coefficient vector of length {len(vec)} on {len(orders)} generators"
        )
    return tuple(
        index(c) if t == 0 else index(c) % t for c, t in zip(vec, orders)
    )


@dataclass(frozen=True, eq=True)
class DecoratedModule:
    """A f.g. Z-module with fixed generators, a symmetric form, and a
    partial ordered-value table.

    orders[i] is the order of generator i (0 for infinite order, else at
    least 2).  The form is zero on every torsion row and column since an
    integral bilinear form kills torsion.
    """

    orders: tuple
    form: IntMatrix
    gvalues: dict = field(default_factory=dict)

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def free_indices(self):
        return tuple(i for i, t in enumerate(self.orders) if t == 0)

    @property
    def torsion_indices(self):
        return tuple(i for i, t in enumerate(self.orders) if t != 0)

    @property
    def free_rank(self) -> int:
        return len(self.free_indices)

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion_indices

    @property
    def group(self) -> FgAbelianGroup:
        return FgAbelianGroup.from_orders(self.orders)

    def key(self, vec):
        return canonical_key(self.orders, vec)

    def value(self, vec):
        return self.gvalues.get(self.key(vec))

    def free_form(self) -> IntMatrix:
        idx = self.free_indices
        return self.form.submatrix(idx, idx)

    def free_form_nondegenerate(self) -> bool:
        return determinant(self.free_form()) != 0


def decorated_module(orders, form=None, gvalues=None) -> DecoratedModule:
    """Validating constructor for DecoratedModule."""
    orders = tuple(int(t) for t in orders)
    for t in orders:
        if t != 0 and t < 2:
            raise PreconditionError(f"generator order {t} must be 0 or >= 2")
    n = len(orders)
    if form is None:
        form = IntMatrix.zeros(n, n)
    if form.shape() != (n, n):
        raise DimensionError(f"form must be {n}x{n}, got {form.shape()}")
    if not form.is_symmetric():
        raise PreconditionError("form must be symmetric")
    for i, t in enumerate(orders):
        if t != 0:
            if any(form[i, j] != 0 for j in range(n)):
                raise PreconditionError(
                    f"form must vanish on torsion generator {i}"
                )
    table = {}
    for key, val in (gvalues or {}).items():
        ck = canonical_key(orders, tuple(key))
        ov = OrderedValue.of(val)
        if ck in table and table[ck] != ov:
            raise PreconditionError(
                f"conflicting table values on class {ck}: {table[ck]} vs {ov}"
            )
        table[ck] = ov
    return DecoratedModule(orders=orders, form=form, gvalues=table)


@dataclass(frozen=True, eq=True)
class ModuleHom:
    """A homomorphism given by a matrix on the fixed generators."""

    domain: DecoratedModule
    codomain: DecoratedModule
    matrix: IntMatrix

    def apply(self, vec):
        return self.codomain.key(self.matrix.apply(self.domain.key(vec)))

    def is_isomorphism(self) -> bool:
        """Five-lemma test: iso on the free quotients and on torsion."""
        dom, cod = self.domain, self.codomain
        fd, fc = dom.free_indices, cod.free_indices
        if len(fd) != len(fc):
            return False
        fblock = self.matrix.submatrix(fc, fd)
        if fd and abs(determinant(fblock)) != 1:
            return False
        td, tc = dom.torsion_indices, cod.torsion_indices
        order_d = 1
        for i in td:
            order_d *= dom.orders[i]
        order_c = 1
        for i in tc:
            order_c *= cod.orders[i]
        if order_d != order_c:
            return False
        if not tc:
            return True
        # surjectivity onto the torsion part: the images of the domain
        # torsion generators together with the codomain relations must
        # span everything
        tblock = self.matrix.submatrix(tc, td)
        stacked = with_relations(tblock, [cod.orders[i] for i in tc])
        return cokernel(stacked).is_trivial


def module_hom(domain, codomain, matrix) -> ModuleHom:
    """Validating constructor: the matrix must map relations into relations."""
    n_d, n_c = domain.ngens, codomain.ngens
    if matrix.shape() != (n_c, n_d):
        raise DimensionError(
            f"hom matrix must be {n_c}x{n_d}, got {matrix.shape()}"
        )
    for j, t in enumerate(domain.orders):
        if t == 0:
            continue
        for i, u in enumerate(codomain.orders):
            x = t * matrix[i, j]
            if u == 0:
                if x != 0:
                    raise PreconditionError(
                        f"generator {j} of order {t} maps outside its order "
                        f"(free coordinate {i})"
                    )
            elif x % u != 0:
                raise PreconditionError(
                    f"generator {j} of order {t} maps to an element whose "
                    f"coordinate {i} is not annihilated mod {u}"
                )
    # canonical residues on torsion rows
    rows = []
    for i, u in enumerate(codomain.orders):
        row = matrix.row(i)
        rows.append([x % u if u != 0 else x for x in row])
    return ModuleHom(domain=domain, codomain=codomain,
                     matrix=IntMatrix.from_rows(rows, cols=n_d))


def identity_hom(d: DecoratedModule) -> ModuleHom:
    return module_hom(d, d, IntMatrix.identity(d.ngens))


def negation_hom(d: DecoratedModule) -> ModuleHom:
    n = d.ngens
    m = IntMatrix.from_rows(
        [[-1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n
    )
    return module_hom(d, d, m)


def compose(g: ModuleHom, f: ModuleHom) -> ModuleHom:
    if f.codomain != g.domain:
        raise DimensionError("composition domains do not match")
    return module_hom(f.domain, g.codomain, g.matrix.mul(f.matrix))


def preserves_form(phi: ModuleHom) -> bool:
    """True iff matrix^T * Q_codomain * matrix equals Q_domain.

    Torsion rows of the matrix are only defined modulo the generator
    order, but the codomain form vanishes there, so plain matrix
    equality is the faithful test.
    """
    got = phi.matrix.transpose().mul(phi.codomain.form).mul(phi.matrix)
    return got.equals(phi.domain.form)


def check_g_preservation(phi: ModuleHom):
    """Compare the domain table with the codomain table along phi.

    Returns (mismatches, undecided): mismatches are (key, got, want)
    triples, undecided are domain keys whose image is not queried in the
    codomain table.
    """
    mism = []
    undecided = []
    table2 = phi.codomain.gvalues
    for key, val in sorted(phi.domain.gvalues.items()):
        img = phi.apply(key)
        if img in table2:
            if table2[img] != val:
                mism.append((key, table2[img], val))
        else:
            undecided.append(key)
    return tuple(mism), tuple(undecided)


# ---------------------------------------------------------------------------
# split modules


@dataclass(frozen=True, eq=True)
class SplitModule:
    """A' = A (+) B with form Q(a+b, a'+b') = Q_A(a, a')."""

    a_part: DecoratedModule
    b_part: DecoratedModule
    total: DecoratedModule

    @property
    def a_dim(self):
        return self.a_part.ngens

    @property
    def b_dim(self):
        return self.b_part.ngens

    def a_coords(self, key):
        return tuple(key[: self.a_dim])

    def b_coords(self, key):
        return tuple(key[self.a_dim:])

    def lies_in_a(self, key) -> bool:
        return all(c == 0 for c in self.total.key(key)[self.a_dim:])

    def lies_in_b(self, key) -> bool:
        return all(c == 0 for c in self.total.key(key)[: self.a_dim])

    def embed_a(self, avec):
        return self.total.key(tuple(avec) + (0,) * self.b_dim)

    def embed_b(self, bvec):
        return self.total.key((0,) * self.a_dim + tuple(bvec))


def split_module(a_part: DecoratedModule, b_part: DecoratedModule,
                 gvalues=None) -> SplitModule:
    """Build A (+) B; the form extends by zero off the A summand.

    Requires the zero form on B and a non-degenerate form on A modulo
    torsion.
    """
    if not b_part.form.is_zero():
        raise PreconditionError("the B summand must carry the zero form")
    if not a_part.free_form_nondegenerate():
        raise PreconditionError(
            "the form on the A summand must be non-degenerate modulo torsion"
        )
    orders = a_part.orders + b_part.orders
    form = block_diag(a_part.form, b_part.form)
    total = decorated_module(orders, form, gvalues)
    return SplitModule(a_part=a_part, b_part=b_part, total=total)


def _torsion_free_hypothesis(s1: SplitModule, s2: SplitModule) -> bool:
    a_free = s1.a_part.is_torsion_free and s2.a_part.is_torsion_free
    b_free = s1.b_part.is_torsion_free and s2.b_part.is_torsion_free
    return a_free or b_free


def split_projection(phi: ModuleHom, s1: SplitModule, s2: SplitModule):
    """Project a form-preserving isomorphism of the sums to its summands.

    Given an isomorphism of A'_1 -> A'_2 preserving the total forms, and
    assuming the A-parts or the B-parts are torsion-free, the A-block of
    its matrix is an isomorphism A_1 -> A_2 preserving the A-forms, and
    the B-block is an isomorphism B_1 -> B_2.  Both facts are verified
    before returning; a verification failure signals a bug, not bad
    input.
    """
    if phi.domain != s1.total or phi.codomain != s2.total:
        raise PreconditionError("phi must map the first total module to the second")
    if not _torsion_free_hypothesis(s1, s2):
        raise PreconditionError(
            "need the A-parts or the B-parts to be torsion-free"
        )
    if not phi.is_isomorphism():
        raise PreconditionError("phi is not an isomorphism")
    if not preserves_form(phi):
        raise PreconditionError("phi does not preserve the total forms")

    a1 = range(s1.a_dim)
    b1 = range(s1.a_dim, s1.total.ngens)
    a2 = range(s2.a_dim)
    b2 = range(s2.a_dim, s2.total.ngens)
    hom_a = module_hom(s1.a_part, s2.a_part, phi.matrix.submatrix(a2, a1))
    hom_b = module_hom(s1.b_part, s2.b_part, phi.matrix.submatrix(b2, b1))

    if not hom_a.is_isomorphism():
        raise InternalCheckError("projected A-component is not an isomorphism")
    if not hom_b.is_isomorphism():
        raise InternalCheckError("projected B-component is not an isomorphism")
    if not preserves_form(hom_a):
        raise InternalCheckError("projected A-component does not preserve Q_A")
    if not preserves_form(hom_b):
        raise InternalCheckError("projected B-component does not preserve Q_B")
    return hom_a, hom_b


@dataclass(frozen=True)
class SplitGReport:
    """A projected isomorphism plus the table coverage of its G-check."""

    hom: ModuleHom
    verified: tuple
    unverified: tuple


def _require_g_preserving(phi: ModuleHom):
    mism, undecided = check_g_preservation(phi)
    if mism:
        key, got, want = mism[0]
        raise PreconditionError(
            f"phi does not preserve the value table: class {key} maps to "
            f"value {got}, expected {want}"
        )
    return undecided


def _component_report(hom: ModuleHom, s1: SplitModule, s2: SplitModule,
                      label: str) -> SplitGReport:
    """G-preservation of the projected A- or B-component on its classes."""
    if label == "A":
        lies_in, coords, embed = s1.lies_in_a, s1.a_coords, s2.embed_a
    else:
        lies_in, coords, embed = s1.lies_in_b, s1.b_coords, s2.embed_b
    verified, unverified = [], []
    table2 = s2.total.gvalues
    for key, val in sorted(s1.total.gvalues.items()):
        if not lies_in(key):
            continue
        key2 = embed(hom.apply(coords(key)))
        if key2 not in table2:
            unverified.append(key)
            continue
        if table2[key2] != val:
            raise VerificationError(
                f"{label}-component fails to preserve the value table",
                witness=key,
            )
        verified.append(key)
    return SplitGReport(hom=hom, verified=tuple(verified),
                        unverified=tuple(unverified))


def split_preserving_g_on_b(phi: ModuleHom, s1: SplitModule,
                            s2: SplitModule) -> SplitGReport:
    """B-component of phi, with G-preservation verified on B-classes.

    Hypotheses: both A-parts torsion-free, phi an isomorphism preserving
    the total forms, and phi preserving the value tables on every
    queried class.  The returned report lists the B-classes on which
    preservation was verified and those whose image is unqueried.
    """
    if not (s1.a_part.is_torsion_free and s2.a_part.is_torsion_free):
        raise PreconditionError("both A-parts must be torsion-free")
    _require_g_preserving(phi)
    _, hom_b = split_projection(phi, s1, s2)

    return _component_report(hom_b, s1, s2, "B")


def _check_monotone_on_table(s: SplitModule, label: str):
    """G(a) <= G(a+b) on every queried pair with matching A-part."""
    table = s.total.gvalues
    for key, val in sorted(table.items()):
        base = s.embed_a(s.a_coords(key))
        if base in table and not (table[base] <= val):
            raise PreconditionError(
                f"monotonicity fails on {label}: G{base} = {table[base]} "
                f"> G{key} = {val}"
            )


def split_preserving_g_on_a(phi: ModuleHom, s1: SplitModule,
                            s2: SplitModule) -> SplitGReport:
    """A-component of phi, with G-preservation verified on A-classes.

    Hypotheses (all checked): G(a) <= G(a+b) on every queried pair in
    both tables, the A-parts or the B-parts torsion-free, and phi an
    isomorphism preserving the total forms and the value tables.  The
    A-classes whose image class is unqueried are reported as unverified
    rather than guessed.
    """
    _check_monotone_on_table(s1, "the first module")
    _check_monotone_on_table(s2, "the second module")
    _require_g_preserving(phi)
    hom_a, _ = split_projection(phi, s1, s2)

    return _component_report(hom_a, s1, s2, "A")


# ---------------------------------------------------------------------------
# bounded isometry search


def _column_candidates(codomain: DecoratedModule, bound: int, order: int):
    """Well-defined images for a domain generator of the given order."""
    out = []
    for vec in itertools.product(range(-bound, bound + 1),
                                 repeat=codomain.ngens):
        if order != 0:
            ok = True
            for x, u in zip(vec, codomain.orders):
                prod = order * x
                if (u == 0 and prod != 0) or (u != 0 and prod % u != 0):
                    ok = False
                    break
            if not ok:
                continue
        out.append(vec)
    # small-norm candidates first: witnesses tend to be near-permutations
    out.sort(key=lambda v: (sum(abs(x) for x in v), v))
    return out


def _norm_buckets(codomain: DecoratedModule, bound: int, order: int):
    """Candidate columns grouped by norm: norm -> [(c, c^T Q), ...].

    Each bucket keeps the order of _column_candidates, so the search
    visits the surviving candidates in the same order as a plain scan.
    """
    q = codomain.form.entries
    n = codomain.ngens
    buckets = {}
    for c in _column_candidates(codomain, bound, order):
        cq = tuple(sum(c[i] * q[i][k] for i in range(n)) for k in range(n))
        buckets.setdefault(sum(map(mul, cq, c)), []).append((c, cq))
    return buckets


def _classes_by_level(d1: DecoratedModule):
    """Tabulated classes of d1 grouped by their highest nonzero coordinate.

    Level j holds (nonzero (index, coefficient) pairs, value) for every
    class whose image is fixed once column j is chosen.  The zero class
    has no level.
    """
    levels = [[] for _ in range(d1.ngens)]
    for key, val in d1.gvalues.items():
        terms = [(i, a) for i, a in enumerate(d1.key(key)) if a]
        if terms:
            levels[terms[-1][0]].append((terms, val))
    return levels


def _values_clash(classes, cols, d2: DecoratedModule) -> bool:
    """True iff some class maps to a class tabulated with another value."""
    table2 = d2.gvalues
    for terms, val in classes:
        img = [0] * d2.ngens
        for i, a in terms:
            for r, x in enumerate(cols[i]):
                img[r] += a * x
        got = table2.get(tuple(x % u if u else x
                               for x, u in zip(img, d2.orders)))
        if got is not None and got != val:
            return True
    return False


def iter_isometries(d1: DecoratedModule, d2: DecoratedModule, bound: int, *,
                    match_values: bool = False):
    """Yield form-preserving isomorphisms with matrix entries in [-bound, bound].

    Exhaustive column backtracking.  Candidate columns are bucketed by
    norm, so column j only tries images c with Q2(c, c) = Q1[j][j], and
    each off-diagonal Gram constraint against an earlier column is one
    dot product with the precomputed c^T Q2.  Within a bucket the order
    is by L1 norm, then lexicographic, so the yield order is fixed.
    Matrices that agree after reduction to canonical torsion residues
    are yielded once.

    With match_values=True a branch is cut as soon as a tabulated class
    of d1 maps to a class tabulated in d2 with a different value (the
    class is mapped once the column of its highest nonzero coordinate
    is fixed).  The isometries still yielded are exactly those without
    such a mismatch, in the same order.

    Raises CapacityError, before building anything, when a module has
    more than SEARCH_RANK_LIMIT generators or the (2*bound + 1)^n2
    candidate columns (n2 generators in d2) exceed SEARCH_CANDIDATE_LIMIT.
    """
    if bound < 1:
        raise PreconditionError("bound must be at least 1")
    n1, n2 = d1.ngens, d2.ngens
    if max(n1, n2) > SEARCH_RANK_LIMIT:
        raise CapacityError(
            f"exhaustive search supports at most {SEARCH_RANK_LIMIT} "
            f"generators, got {max(n1, n2)}"
        )
    size = (2 * bound + 1) ** n2
    if size > SEARCH_CANDIDATE_LIMIT:
        raise CapacityError(
            f"bound {bound} on {n2} generators gives {size} candidate "
            f"columns, above the limit of {SEARCH_CANDIDATE_LIMIT}"
        )
    levels = [[] for _ in range(n1)]
    if match_values:
        zero1, zero2 = (0,) * n1, (0,) * n2
        want, got = d1.gvalues.get(zero1), d2.gvalues.get(zero2)
        if want is not None and got is not None and got != want:
            return
        levels = _classes_by_level(d1)
    q1 = d1.form.entries
    buckets = {t: _norm_buckets(d2, bound, t) for t in set(d1.orders)}
    # Without codomain torsion module_hom reduces nothing, so distinct
    # column choices give distinct matrices.
    dedup = not d2.is_torsion_free
    # For symmetric forms the Gram checks give M^T Q2 M = Q1, so
    # det(M)^2 = 1 when det Q1 = det Q2 != 0 and there is no torsion.
    check_iso = not (n1 == n2 and d1.is_torsion_free and d2.is_torsion_free
                     and determinant(d1.form) == determinant(d2.form) != 0)
    cols = [None] * n1
    seen = set()

    def walk(j):
        if j == n1:
            rows = [[cols[c][r] for c in range(n1)] for r in range(n2)]
            hom = module_hom(d1, d2, IntMatrix.from_rows(rows, cols=n1))
            if dedup:
                key = hom.matrix.entries
                if key in seen:
                    return
                seen.add(key)
            if not check_iso or hom.is_isomorphism():
                yield hom
            return
        row = q1[j]
        for c, cq in buckets[d1.orders[j]].get(row[j], ()):
            if any(sum(map(mul, cq, cols[i])) != row[i] for i in range(j)):
                continue
            cols[j] = c
            if levels[j] and _values_clash(levels[j], cols, d2):
                continue
            yield from walk(j + 1)
        cols[j] = None

    yield from walk(0)


def enumerate_isometries(d1: DecoratedModule, d2: DecoratedModule,
                         bound: int):
    """All bounded isometries, sorted row-major for deterministic output."""
    found = list(iter_isometries(d1, d2, bound))
    found.sort(key=lambda h: h.matrix.entries)
    return found


def isometry_exists(q1: IntMatrix, q2: IntMatrix, bound: int):
    """First bounded isometry between two bare symmetric forms, or None.

    Fast paths: equal matrices and pairs of zero forms of equal rank are
    isometric via the identity; forms whose exact determinant, signature
    or parity differ admit no isometry at all.
    """
    n1, n2 = q1.rows, q2.rows
    if n1 != n2:
        return None
    if q1.equals(q2):
        return IntMatrix.identity(n1)
    if q1.is_zero() and q2.is_zero():
        return IntMatrix.identity(n1)
    if determinant(q1) != determinant(q2):
        return None
    if signature(q1) != signature(q2):
        return None
    odd1 = any(q1[i, i] % 2 != 0 for i in range(n1))
    odd2 = any(q2[i, i] % 2 != 0 for i in range(n2))
    if odd1 != odd2:
        return None
    d1 = decorated_module((0,) * n1, q1)
    d2 = decorated_module((0,) * n2, q2)
    for hom in iter_isometries(d1, d2, bound):
        return hom.matrix
    return None


# ---------------------------------------------------------------------------
# algebraic equivalence


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of the bounded equivalence search.

    equivalent=True carries a verified witness.  equivalent=False only
    means no witness with entries within the bound exists; it is a
    semi-decision, never a proof of inequivalence.  undecided lists
    (matrix entries, class) pairs where a candidate isometry mapped a
    queried class outside the other table.
    """

    equivalent: bool
    witness: ModuleHom | None
    undecided: tuple

    @property
    def verdict(self) -> str:
        return "EQUIVALENT" if self.equivalent else "NOT-WITHIN-BOUND"


def algebraically_equivalent(d1: DecoratedModule, d2: DecoratedModule,
                             bound: int) -> EquivalenceResult:
    """Search for an isomorphism preserving both form and value table.

    A candidate isometry is a witness when it maps every queried class
    of the first table to a queried class of the second with the same
    value.  Candidates that leave the queried tables are reported as
    undecided rather than silently rejected.

    The search runs with match_values=True: branches whose isometries
    would all map some queried class to a different queried value are
    cut early.  Such candidates are neither witnesses nor undecided, so
    the first witness and the undecided list are those of the full
    search.
    """
    undecided = []
    for hom in iter_isometries(d1, d2, bound, match_values=True):
        mism, missing = check_g_preservation(hom)
        if mism:
            continue
        if missing:
            undecided.append((hom.matrix.entries, missing))
            continue
        return EquivalenceResult(equivalent=True, witness=hom, undecided=())
    return EquivalenceResult(equivalent=False, witness=None,
                             undecided=tuple(undecided))


# ---------------------------------------------------------------------------
# stability of equivalence under sums and attachments


def sum_module(x: DecoratedModule, orders, form: IntMatrix,
               pinned) -> DecoratedModule:
    """X (+) Y, where Y has the given generator orders and form.

    The form is block diagonal.  X's values transfer exactly onto
    alpha (+) 0 and onto alpha (+) beta for each pinned beta, a class of
    Y whose value is pinned to 0 so the two-sided estimate collapses.
    Other classes stay unqueried.
    """
    table = {}
    for beta in ((0,) * len(orders), *pinned):
        for key, val in x.gvalues.items():
            table[key + beta] = val
    return decorated_module(x.orders + tuple(orders),
                            block_diag(x.form, form), table)


@dataclass(frozen=True)
class StabilityReport:
    mode: str
    before: EquivalenceResult
    after: EquivalenceResult
    implication_ok: bool

    @property
    def verdict(self) -> str:
        return "CONSISTENT" if self.implication_ok else "VIOLATION"


def stability_report(mode: str, exact: bool, before_pair, after_pair,
                     bound: int) -> StabilityReport:
    """Bounded equivalence of both pairs, checked against the statement.

    exact: the verdicts must agree; otherwise equivalence after must
    imply equivalence before.  A violation is a bug, not a property of
    the input: the underlying statements guarantee the implication.
    """
    before = algebraically_equivalent(*before_pair, bound)
    after = algebraically_equivalent(*after_pair, bound)
    if exact:
        ok = before.equivalent == after.equivalent
    else:
        ok = before.equivalent or not after.equivalent
    return StabilityReport(mode=mode, before=before, after=after,
                           implication_ok=ok)

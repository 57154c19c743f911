"""Genus-function-type invariants: lower bounds, torsion-free reduction,
and the characteristic-class obstruction.

An invariant of genus function type assigns to each 4-manifold an
ordered-value map on second homology that can only drop under
embeddings.  Its values on disk bundles over surfaces convert, through
the function a_g, into lower bounds for the genus function itself.
Tables of disk-bundle values are finite with explicit coverage bounds;
queries beyond coverage answer "infinite, with a caveat" instead of
fabricating a value.

The mod-16 obstruction: for a characteristic class alpha in a closed
4-manifold, alpha . alpha - signature is divisible by 16 whenever alpha
is represented by a sphere, so a nonzero residue forces positive genus.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import index

from .errors import CapacityError, PreconditionError
from .forms import (
    DecoratedModule,
    StabilityReport,
    decorated_module,
    stability_report,
    sum_module,
)
from .intmat import IntMatrix, signature
from .values import POS_INF, OrderedValue

TORSION_ENUMERATION_LIMIT = 4096


# ---------------------------------------------------------------------------
# disk-bundle tables and the lower-bound function


@dataclass(frozen=True)
class DiskBundleTable:
    """Values of an invariant on the disk bundles S(g, n).

    entries maps (g, n) to the value on the positive generator; the
    value on the negative generator is the same by symmetry.  Coverage
    is a full column g = 0..g_max for every covered Euler number n, and
    each column is monotone non-decreasing in g.
    """

    entries: dict
    g_max: int
    euler_numbers: tuple

    def value(self, g: int, n: int) -> OrderedValue:
        return self.entries[(g, n)]

    def covers(self, n: int) -> bool:
        return n in self.euler_numbers


def disk_bundle_table(entries) -> DiskBundleTable:
    """Validating constructor; checks coverage shape and monotonicity."""
    table = {}
    for (g, n), val in entries.items():
        g, n = index(g), index(n)
        if g < 0:
            raise PreconditionError("bundle genus must be non-negative")
        table[(g, n)] = OrderedValue.of(val)
    if not table:
        raise PreconditionError("empty disk-bundle table")
    ns = sorted({n for _, n in table})
    g_maxes = set()
    for n in ns:
        gs = sorted(g for g, n2 in table if n2 == n)
        if gs != list(range(len(gs))):
            raise PreconditionError(
                f"column n={n} must cover g = 0..g_max without gaps"
            )
        g_maxes.add(gs[-1])
    if len(g_maxes) != 1:
        raise PreconditionError("all columns must share the same g_max")
    g_max = g_maxes.pop()
    for n in ns:
        for g in range(g_max):
            if not (table[(g, n)] <= table[(g + 1, n)]):
                raise PreconditionError(
                    f"column n={n} not monotone at g={g}: "
                    f"{table[(g, n)]} > {table[(g + 1, n)]}"
                )
    return DiskBundleTable(entries=table, g_max=g_max,
                           euler_numbers=tuple(ns))


def identity_disk_bundle_table(g_max: int, euler_numbers=(0,)) -> DiskBundleTable:
    """The table of the genus function itself: value(g, n) = g."""
    return disk_bundle_table(
        {(g, n): g for g in range(g_max + 1) for n in euler_numbers}
    )


@dataclass(frozen=True)
class AgValue:
    """Result of the lower-bound function.

    value is a non-negative integer or +infinity; capped records that
    the infinity came from running past g_max, i.e. the table could not
    distinguish "beyond every bundle value" from "beyond coverage".
    """

    value: OrderedValue
    capped: bool = False

    def __str__(self):
        s = str(self.value)
        return s + " (coverage caveat)" if self.capped else s


def a_g(r, n: int, t: DiskBundleTable) -> AgValue:
    """Smallest bundle genus whose invariant value reaches r.

    The first g with value(g, n) >= r, as columns are non-decreasing; 0
    when r lies below the whole column, and +infinity above it, with a
    coverage caveat since the column stops at g_max.
    """
    if not t.covers(n):
        raise PreconditionError(f"Euler number {n} outside table coverage")
    vals = [t.value(g, n) for g in range(t.g_max + 1)]
    g = bisect_left(vals, OrderedValue.of(r))
    if g < len(vals):
        return AgValue(OrderedValue.of(g))
    return AgValue(POS_INF, capped=True)


def lower_bound_check(claimed_genus: int, g_value, self_int: int,
                      t: DiskBundleTable):
    """Validate a claimed genus against the lower bound.

    Returns (ok, bound).  A capped-infinite bound cannot certify a
    violation, so it reports ok with the caveat carried in the bound.
    """
    bound = a_g(g_value, self_int, t)
    if bound.capped:
        return True, bound
    return OrderedValue.of(claimed_genus) >= bound.value, bound


# ---------------------------------------------------------------------------
# the mod-16 obstruction


@dataclass(frozen=True)
class CharClassInstance:
    form: IntMatrix
    alpha: tuple
    sigma: int


def char_class_instance(form: IntMatrix, alpha) -> CharClassInstance:
    """Validating constructor: alpha must be characteristic for the form.

    Characteristic means alpha . x = x . x mod 2 for every x; both sides
    are linear mod 2, so checking the generator basis suffices.
    """
    if not form.is_symmetric():
        raise PreconditionError("form must be symmetric")
    alpha = tuple(map(index, alpha))
    n = form.rows
    if len(alpha) != n:
        raise PreconditionError(f"alpha must have {n} coordinates")
    qa = form.apply(alpha)
    for i in range(n):
        if (qa[i] - form[i, i]) % 2 != 0:
            raise PreconditionError(
                f"alpha is not characteristic: alpha.e_{i} = {qa[i]} but "
                f"e_{i}.e_{i} = {form[i, i]} (mod 2 mismatch)"
            )
    pos, neg, _ = signature(form)
    return CharClassInstance(form=form, alpha=alpha, sigma=pos - neg)


@dataclass(frozen=True)
class KMResult:
    residue: int  # representative in [-8, 8)
    positive_genus_forced: bool


def kervaire_milnor_obstruction(c: CharClassInstance) -> KMResult:
    """Residue of alpha.alpha - signature mod 16 and what it forces.

    A characteristic class represented by an embedded sphere in a closed
    4-manifold has residue 0; any other residue forces positive genus.
    """
    qa = c.form.apply(c.alpha)
    self_int = sum(a * x for a, x in zip(c.alpha, qa))
    residue = ((self_int - c.sigma + 8) % 16) - 8
    return KMResult(residue=residue, positive_genus_forced=residue != 0)


# ---------------------------------------------------------------------------
# torsion-free reduction


@dataclass(frozen=True)
class TorsionFreeReduction:
    """Module modulo torsion with the reduced value table.

    partial marks the free classes whose minimum was taken over an
    incomplete set of torsion companions; the true reduced value could
    be smaller.
    """

    module: DecoratedModule
    partial: frozenset


def torsion_free_reduce(d: DecoratedModule) -> TorsionFreeReduction:
    """Reduce the value table modulo torsion: min over torsion companions."""
    if not d.gvalues:
        raise PreconditionError("the value table must be nonempty")
    free_idx = d.free_indices
    tor_idx = d.torsion_indices
    companions = math.prod(d.orders[i] for i in tor_idx)
    if companions > TORSION_ENUMERATION_LIMIT:
        raise CapacityError(
            f"torsion group too large to enumerate: {companions} torsion "
            f"companions, above the limit of {TORSION_ENUMERATION_LIMIT}"
        )
    reduced = {}
    seen = {}
    for key, val in d.gvalues.items():
        fkey = tuple(key[i] for i in free_idx)
        seen.setdefault(fkey, []).append(val)
    partial = set()
    for fkey, vals in seen.items():
        reduced[fkey] = min(vals)
        if len(vals) < companions:
            partial.add(fkey)
    form = d.form.submatrix(free_idx, free_idx)
    module = decorated_module((0,) * len(free_idx), form, reduced)
    return TorsionFreeReduction(module=module, partial=frozenset(partial))


# ---------------------------------------------------------------------------
# stability of equivalence under sums


def sum_model(d: DecoratedModule, z: DecoratedModule) -> DecoratedModule:
    """X (+) Z, with X's values pinned on every class the Z-table sets to 0."""
    pinned = [key for key, val in z.gvalues.items() if val == 0]
    return sum_module(d, z.orders, z.form, pinned)


def sum_stability_check(d1: DecoratedModule, d2: DecoratedModule,
                        z1: DecoratedModule, z2: DecoratedModule,
                        mode: str, bound: int) -> StabilityReport:
    """Verify a sum-stability statement at desk scale.

    mode "h2zero": both Z-modules must be trivial; equivalence of the
    sums is then equivalent to equivalence of the summands, and the
    bounded verdicts must agree exactly.

    mode "nondegenerate": both X-forms non-degenerate, the X-groups or
    the Z-groups torsion-free, and the Z-forms zero (pieces of surgered
    sphere-links have no intersection pairing); bounded equivalence of
    the sums must then imply bounded equivalence of the summands.
    """
    if mode == "h2zero":
        for z in (z1, z2):
            if z.ngens != 0:
                raise PreconditionError("h2zero mode needs trivial H2(Z)")
    elif mode == "nondegenerate":
        if not (d1.free_form_nondegenerate() and d2.free_form_nondegenerate()):
            raise PreconditionError(
                "nondegenerate mode needs non-degenerate X-forms"
            )
        x_free = d1.is_torsion_free and d2.is_torsion_free
        z_free = z1.is_torsion_free and z2.is_torsion_free
        if not (x_free or z_free):
            raise PreconditionError(
                "nondegenerate mode needs torsion-free X-groups or "
                "torsion-free Z-groups"
            )
        for z in (z1, z2):
            if not z.form.is_zero():
                raise PreconditionError("Z-forms must be zero")
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    return stability_report(mode, mode == "h2zero", (d1, d2),
                            (sum_model(d1, z1), sum_model(d2, z2)), bound)

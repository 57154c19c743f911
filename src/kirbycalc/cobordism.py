"""Homology-level models of quasi-invertible cobordism attachment.

A cobordism P from M to N sits inside a composite M -> P -> R, where R
is the quasi-product that P and its quasi-inverse glue up to.  The model
keeps only what the algebra consumes: the three second homology groups,
the two induced maps, and flags recording properties (invertibility,
strong quasi-invertibility, H2-surjectivity) that are not decidable
from the module data alone and so are established by constructors or
explicit assertion.

From the maps the model derives the image submodule I (of H2(M) in
H2(P)) and the kernel submodule K (of H2(P) -> H2(R)).  For strongly
quasi-invertible P the decomposition H2(P) = I (+) K is verified, and
attaching P to a 4-manifold model X produces H2(X') = H2(X) (+) K with
the form extended by zero on K and genus values carried across exactly
where the interval estimate collapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError
from .forms import (
    DecoratedModule,
    ModuleHom,
    StabilityReport,
    canonical_key,
    compose,
    decorated_module,
    module_hom,
    stability_report,
    sum_module,
)
from .intmat import (
    FgAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    kernel_basis,
    smith_normal_form,
    solve_integer,
    with_relations,
)
from .values import OrderedValue


# ---------------------------------------------------------------------------
# submodules of a decorated module


def _presentation(ambient: DecoratedModule, gens) -> IntMatrix:
    """[gens | torsion relations]: columns spanning the submodule's
    preimage in the free lattice over the ambient generators."""
    rows = [[g[coord] for g in gens] for coord in range(ambient.ngens)]
    return with_relations(IntMatrix.from_rows(rows, cols=len(gens)),
                          ambient.orders)


@dataclass(frozen=True)
class SubmodulePresentation:
    """A submodule of a decorated module, with an abstract presentation.

    gens are coefficient vectors in the ambient module.  orders are the
    generator orders of the canonical abstract presentation; coords()
    and vector_of() translate between ambient vectors and abstract
    coordinate keys.
    """

    ambient: DecoratedModule
    gens: tuple
    orders: tuple
    _u: IntMatrix = field(compare=False)
    _kept: tuple = field(compare=False)
    # Smith decomposition of the [gens | relations] presentation
    _pres: SmithDecomposition = field(compare=False)

    def abstract_group(self):
        return FgAbelianGroup.from_orders(self.orders)

    def coords(self, coefficients):
        """Abstract key of sum(coefficients[i] * gens[i])."""
        y = self._u.apply(tuple(coefficients))
        return canonical_key(self.orders, [y[i] for i in self._kept])

    def vector_of(self, key):
        """An ambient coefficient vector representing the abstract key."""
        if len(key) != len(self.orders):
            raise PreconditionError("abstract key has wrong length")
        y = [0] * len(self.gens)
        for pos, i in enumerate(self._kept):
            y[i] = key[pos]
        # U is unimodular, so U v = y has exactly one integer solution
        v = solve_integer(self._u, y)
        amb = [0] * self.ambient.ngens
        for coeff, g in zip(v, self.gens):
            for c in range(self.ambient.ngens):
                amb[c] += coeff * g[c]
        return self.ambient.key(amb)

    def membership(self, vec):
        """Abstract key of an ambient vector, or None when outside."""
        sol = self._pres.solve(vec)
        if sol is None:
            return None
        return self.coords(sol[: len(self.gens)])


def submodule(ambient: DecoratedModule, gens) -> SubmodulePresentation:
    """Present the submodule generated by the given ambient vectors."""
    gens = tuple(ambient.key(g) for g in gens)
    m = len(gens)
    pres = smith_normal_form(_presentation(ambient, gens))
    # the trailing columns of V are the kernel basis of the presentation;
    # their first m coordinates span the relations among the generators
    relmat = pres.v.submatrix(range(m), range(pres.rank, pres.v.cols))
    snf = smith_normal_form(relmat)
    diag = snf.diagonal()
    divisors = tuple(diag[i] if i < len(diag) else 0 for i in range(m))
    kept = tuple(i for i in range(m) if divisors[i] != 1)
    orders = tuple(divisors[i] for i in kept)
    # U relmat V = D, so the abstract coordinates of a coefficient vector
    # v are U v, reduced modulo the diagonal
    return SubmodulePresentation(ambient=ambient, gens=gens, orders=orders,
                                 _u=snf.u, _kept=kept, _pres=pres)


def hom_image(phi: ModuleHom) -> SubmodulePresentation:
    gens = [phi.matrix.column(j) for j in range(phi.domain.ngens)]
    return submodule(phi.codomain, gens)


def hom_kernel_gens(phi: ModuleHom):
    """Generators (in the domain) of the kernel of phi."""
    ker = kernel_basis(with_relations(phi.matrix, phi.codomain.orders))
    n = phi.domain.ngens
    gens = []
    for j in range(ker.shape()[1]):
        vec = tuple(ker[i, j] for i in range(n))
        gens.append(phi.domain.key(vec))
    # the domain's own torsion relations are kernel elements of the
    # presentation lattice but zero in the module; drop zero vectors
    return tuple(g for g in gens if any(g))


def hom_kernel(phi: ModuleHom) -> SubmodulePresentation:
    return submodule(phi.domain, hom_kernel_gens(phi))


def hom_is_injective(phi: ModuleHom) -> bool:
    return not hom_kernel_gens(phi)


def spans_ambient(ambient: DecoratedModule, gen_sets) -> bool:
    """Do the given vectors together generate the whole module?"""
    gens = [g for gs in gen_sets for g in gs]
    return cokernel(_presentation(ambient, gens)).is_trivial


def decomposes_as_direct_sum(ambient: DecoratedModule,
                             s1: SubmodulePresentation,
                             s2: SubmodulePresentation) -> bool:
    """ambient = s1 (+) s2, by spanning plus the Hopfian count.

    A surjection s1 (+) s2 -> ambient between isomorphic finitely
    generated abelian groups is an isomorphism, so spanning together
    with equality of canonical forms settles directness.
    """
    if not spans_ambient(ambient, [s1.gens, s2.gens]):
        return False
    return s1.abstract_group().direct_sum(s2.abstract_group()) == ambient.group


# ---------------------------------------------------------------------------
# the cobordism model


@dataclass(frozen=True)
class CobordismModel:
    h2_m: DecoratedModule
    h2_p: DecoratedModule
    h2_r: DecoratedModule
    map_mp: ModuleHom
    map_pr: ModuleHom
    invertible: bool
    strongly_quasi_invertible: bool
    h2_surjective: bool
    i_part: SubmodulePresentation = field(compare=False)
    k_part: SubmodulePresentation = field(compare=False)


def cobordism_model(h2_m, h2_p, h2_r, map_mp, map_pr, *, invertible=False,
                    strongly_quasi_invertible=False,
                    h2_surjective=False) -> CobordismModel:
    """Validating constructor; asserted flags are checked against the data.

    invertible implies strongly quasi-invertible and forces H2(P) and
    the K summand to be torsion-free.  strongly quasi-invertible forces
    the M -> P map to be injective, H2(P) = I (+) K, and the composite
    M -> R to be an isomorphism.  H2-surjectivity means I is all of
    H2(P).
    """
    if map_mp.domain != h2_m or map_mp.codomain != h2_p:
        raise PreconditionError("map_mp must go from H2(M) to H2(P)")
    if map_pr.domain != h2_p or map_pr.codomain != h2_r:
        raise PreconditionError("map_pr must go from H2(P) to H2(R)")
    if invertible:
        strongly_quasi_invertible = True
    i_part = hom_image(map_mp)
    k_part = hom_kernel(map_pr)
    if invertible:
        if h2_p.group.torsion_divisors:
            raise PreconditionError(
                "an invertible model needs torsion-free H2(P)"
            )
        if k_part.abstract_group().torsion_divisors:
            raise PreconditionError(
                "an invertible model needs a torsion-free K summand"
            )
    if strongly_quasi_invertible:
        if not hom_is_injective(map_mp):
            raise PreconditionError(
                "strong quasi-invertibility needs an injective H2(M) -> H2(P)"
            )
        if not decomposes_as_direct_sum(h2_p, i_part, k_part):
            raise PreconditionError(
                "strong quasi-invertibility needs H2(P) = I (+) K"
            )
        if not compose(map_pr, map_mp).is_isomorphism():
            raise PreconditionError(
                "strong quasi-invertibility needs H2(M) -> H2(R) to be an "
                "isomorphism"
            )
    if h2_surjective:
        if not spans_ambient(h2_p, [i_part.gens]):
            raise PreconditionError(
                "H2-surjectivity asserted but the image of H2(M) is proper"
            )
    return CobordismModel(h2_m=h2_m, h2_p=h2_p, h2_r=h2_r, map_mp=map_mp,
                          map_pr=map_pr, invertible=invertible,
                          strongly_quasi_invertible=strongly_quasi_invertible,
                          h2_surjective=h2_surjective, i_part=i_part,
                          k_part=k_part)


def trivial_ends_model(k_module: DecoratedModule) -> CobordismModel:
    """A strongly quasi-invertible model with H2(M) = H2(R) = 0.

    H2(P) is the given module (zero form required), the maps are zero,
    and K is everything.  This is the homology picture of a product
    cobordism summed with pieces of surgered sphere-links.
    """
    if not k_module.form.is_zero():
        raise PreconditionError("H2(P) of the trivial-ends model carries the zero form")
    zero = decorated_module(())
    mp = module_hom(zero, k_module, IntMatrix.zeros(k_module.ngens, 0))
    pr = module_hom(k_module, zero, IntMatrix.zeros(0, k_module.ngens))
    return cobordism_model(zero, k_module, zero, mp, pr,
                           strongly_quasi_invertible=True,
                           h2_surjective=(k_module.ngens == 0))


@dataclass(frozen=True)
class AttachmentModel:
    x: DecoratedModule
    cob: CobordismModel
    glue: ModuleHom  # H2(M) -> H2(X)

    def __post_init__(self):
        if self.glue.domain != self.cob.h2_m or self.glue.codomain != self.x:
            raise PreconditionError("glue must go from H2(M) to H2(X)")


def _attach_condition(a: AttachmentModel):
    """Which sufficient condition validates the direct-sum model, if any."""
    if a.cob.strongly_quasi_invertible:
        return "strongly-quasi-invertible"
    if a.glue.matrix.is_zero():
        return "zero-glue-map"
    if a.x.free_form_nondegenerate() and a.x.is_torsion_free:
        return "non-degenerate-torsion-free"
    return None


@dataclass(frozen=True)
class AttachResult:
    """H2 of the glued manifold, modeled as H2(X) (+) K."""

    module: DecoratedModule
    x_gens: int
    k_orders: tuple
    condition: str


def attach(a: AttachmentModel) -> AttachResult:
    """Direct-sum model of attaching the cobordism to X.

    Valid under one of the sufficient conditions (strongly
    quasi-invertible cobordism, zero glue map on H2, or non-degenerate
    torsion-free X); refuses otherwise, since the decomposition may
    fail.  The intersection form extends by zero on the K summand.
    Genus values carry over as in forms.sum_module, pinned on each class
    of H2(P) that lies in K and has value 0 in the cobordism's table.
    """
    condition = _attach_condition(a)
    if condition is None:
        raise PreconditionError(
            "no sufficient condition holds (need a strongly quasi-invertible "
            "cobordism, a zero glue map, or a non-degenerate torsion-free X); "
            "the direct-sum decomposition may fail"
        )
    k = a.cob.k_part
    pinned = []
    for pkey, pval in a.cob.h2_p.gvalues.items():
        if pval != 0:
            continue
        beta = k.membership(pkey)
        if beta is not None:
            pinned.append(beta)
    width = len(k.orders)
    module = sum_module(a.x, k.orders, IntMatrix.zeros(width, width), pinned)
    return AttachResult(module=module, x_gens=a.x.ngens, k_orders=k.orders,
                        condition=condition)


def genus_interval(gx_alpha, gp_beta):
    """The two-sided estimate for the glued genus value.

    Returns (lo, hi) = (g_X(alpha), g_X(alpha) + g_P(beta)).  Infinite
    inputs give an interval with an infinite endpoint.
    """
    lo = OrderedValue.of(gx_alpha)
    hi = lo + OrderedValue.of(gp_beta)
    return (lo, hi)


def interval_check(gx_alpha, gp_beta, claimed) -> bool:
    """Validate a claimed glued genus value against the interval."""
    lo, hi = genus_interval(gx_alpha, gp_beta)
    claimed = OrderedValue.of(claimed)
    return lo <= claimed <= hi


def stability_check_quasi(a1: AttachmentModel, a2: AttachmentModel,
                          bound: int) -> StabilityReport:
    """Check a stability statement on a pair of attachment models.

    Two hypothesis regimes are recognized from the flags. "h2-iso": both
    cobordisms are H2-surjective and a sufficient injectivity condition
    holds, so H2(X) -> H2(X') is an isomorphism and equivalence before
    and after must agree exactly.  "non-degenerate": both X-forms are
    non-degenerate and the X-groups or the K summands are torsion-free;
    then equivalence after the attachments must imply equivalence
    before.
    """
    cond1, cond2 = _attach_condition(a1), _attach_condition(a2)
    if cond1 is None or cond2 is None:
        raise PreconditionError("attachment hypotheses not established")
    if a1.cob.h2_surjective and a2.cob.h2_surjective:
        mode = "h2-iso"
    else:
        nondeg = (a1.x.free_form_nondegenerate()
                  and a2.x.free_form_nondegenerate())
        x_free = a1.x.is_torsion_free and a2.x.is_torsion_free
        k_free = (not a1.cob.k_part.abstract_group().torsion_divisors
                  and not a2.cob.k_part.abstract_group().torsion_divisors)
        if not (nondeg and (x_free or k_free)):
            raise PreconditionError(
                "neither the H2-isomorphism nor the non-degenerate "
                "hypotheses are established by the flags"
            )
        mode = "non-degenerate"
    return stability_report(mode, mode == "h2-iso", (a1.x, a2.x),
                            (attach(a1).module, attach(a2).module), bound)


# ---------------------------------------------------------------------------
# generation moves and their certificates


@dataclass(frozen=True)
class Move:
    """One step of a quasi-invertible cobordism construction."""

    kind: str
    sphere_link_nonempty: bool = False


#: kind -> (one-line justification, True when the move always retains
#: invertibility; sum moves retain it only for an empty sphere link)
MOVE_RULES = {
    "restrict-to-submanifold": (
        "a codimension-0 submanifold containing the negative boundary", True),
    "connected-sum-piece": (
        "connected sum with a piece of a surgered sphere-link", False),
    "boundary-sum-piece": (
        "boundary sum with a piece of a surgered sphere-link", False),
    "one-handles": (
        "1-handles attached along a connected boundary component", True),
    "canceling-pairs": (
        "homotopically canceling 1-/2-handle pairs; upside-down gives the "
        "inverse", True),
    "slice-zero-framed-two-handles": (
        "0-framed 2-handles along a strongly slice link", True),
}


@dataclass(frozen=True)
class CertStep:
    move: Move
    rule: str
    invertible_after: bool


@dataclass(frozen=True)
class Certificate:
    steps: tuple
    quasi_invertible: bool
    invertible: bool


def quasi_invertibility_certificate(trace) -> Certificate:
    """Certify a construction trace move by move.

    The empty trace is the product cobordism, hence invertible.  Every
    recognized move keeps quasi-invertibility; invertibility survives
    unless a sum move brings in a piece of a surgered nonempty
    sphere-link.
    """
    invertible = True
    steps = []
    for move in trace:
        if move.kind not in MOVE_RULES:
            raise PreconditionError(f"unrecognized construction move {move.kind!r}")
        rule, always_invertible = MOVE_RULES[move.kind]
        if not always_invertible and move.sphere_link_nonempty:
            invertible = False
        steps.append(CertStep(move=move, rule=rule,
                              invertible_after=invertible))
    return Certificate(steps=tuple(steps), quasi_invertible=True,
                       invertible=invertible)

"""Seeded random instance generators shared across the test suite."""

import itertools

from kirbycalc.forms import (
    SplitModule,
    decorated_module,
    module_hom,
    preserves_form,
    split_module,
)
from kirbycalc.handlebody import (
    Handlebody2,
    attach_canceling_pairs,
    boundary_sum,
    handlebody,
    mazur_cork_template,
    w_minus,
    w_plus,
)
from kirbycalc.intmat import IntMatrix, determinant
from kirbycalc.legendrian import FrontCounts


def rand_matrix(rng, max_dim=6, max_entry=9, rows=None, cols=None):
    r = rows if rows is not None else rng.randint(0, max_dim)
    c = cols if cols is not None else rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(c)] for _ in range(r)],
        cols=c,
    )


def rand_symmetric(rng, n, max_entry=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-max_entry, max_entry)
            rows[i][j] = v
            rows[j][i] = v
    return IntMatrix.from_rows(rows, cols=n)


def rand_nondegenerate_symmetric(rng, n, max_entry=2):
    while True:
        q = rand_symmetric(rng, n, max_entry)
        if n == 0 or determinant(q) != 0:
            return q


def rand_unimodular(rng, n, moves=6, max_shear=2):
    """Product of elementary matrices: always determinant +-1."""
    m = [list(r) for r in IntMatrix.identity(n).entries]
    for _ in range(moves):
        if n < 1:
            break
        kind = rng.choice(("shear", "swap", "negate"))
        if kind == "shear" and n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-max_shear, max_shear)
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == "swap" and n >= 2:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(n)
            m[i] = [-x for x in m[i]]
    return IntMatrix.from_rows(m, cols=n)


# ---------------------------------------------------------------------------
# handlebodies


def rand_front(rng):
    right = rng.randint(1, 3)
    up = rng.randint(0, 2 * right)
    return FrontCounts(
        writhe=rng.randint(-3, 3),
        right_cusps=right,
        up_cusps=up,
        down_cusps=2 * right - up,
    )


def rand_handlebody(rng, max_k=3, max_n=3, max_entry=3, min_n=0,
                    with_fronts=False) -> Handlebody2:
    k = rng.randint(0, max_k)
    n = rng.randint(min_n, max_n)
    handles = []
    for _ in range(n):
        length = rng.randint(0, 4) if k else 0
        word = tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(length))
        framing = rng.randint(-max_entry, max_entry)
        front = rand_front(rng) if with_fronts else None
        handles.append((word, framing, front))
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        linking[i][i] = handles[i][1]
        for j in range(i + 1, n):
            v = rng.randint(-max_entry, max_entry)
            linking[i][j] = v
            linking[j][i] = v
    return handlebody(k, handles, IntMatrix.from_rows(linking, cols=n))


def rand_moved_handlebody(rng, max_k=4, max_n=5, max_pairs=4, max_corks=2):
    """A random handlebody after a w-move, canceling pairs and a cork sum,
    each step taken or skipped at random."""
    h = rand_handlebody(rng, max_k=max_k, max_n=max_n, max_entry=2, min_n=1)
    move = rng.choice((None, w_minus, w_plus))
    if move is not None:
        h = move(h, rng.randrange(h.n), rng.randint(1, 3))
    h = attach_canceling_pairs(h, rng.randint(0, max_pairs))
    for _ in range(rng.randint(0, max_corks)):
        cork = mazur_cork_template(*(rng.randint(1, 3) for _ in range(3)))
        h = boundary_sum(h, cork) if rng.random() < 0.5 else boundary_sum(cork, h)
    return h


# ---------------------------------------------------------------------------
# split-module instances


def box_keys(orders, radius=2):
    ranges = []
    for t in orders:
        if t == 0:
            ranges.append(range(-radius, radius + 1))
        else:
            ranges.append(range(t))
    return [tuple(v) for v in itertools.product(*ranges)]


class SplitInstance:
    """A split module, a form-preserving automorphism, and value data."""

    def __init__(self, split: SplitModule, phi, base_weight, pen_weight):
        self.split = split
        self.phi = phi
        self.base_weight = base_weight
        self.pen_weight = pen_weight


def _elementary_move(rng, a_orders, b_orders, *, g_safe):
    """One elementary form-preserving move on A (+) B, as a matrix.

    With g_safe, only moves preserving the parity-based test values are
    produced: even shears, torsion translates from A, global A negation
    and signed permutations of the free B generators.
    """
    na, nb = len(a_orders), len(b_orders)
    n = na + nb
    m = [list(r) for r in IntMatrix.identity(n).entries]
    a_free = [i for i, t in enumerate(a_orders) if t == 0]
    a_tor = [i for i, t in enumerate(a_orders) if t != 0]
    b_all = list(range(na, n))
    b_free = [na + i for i, t in enumerate(b_orders) if t == 0]
    kinds = []
    if a_free and b_all:
        kinds.append("shear-a-to-b")
    if a_tor:
        kinds.append("torsion-translate")
    if a_free:
        kinds.append("negate-a")
    if len(b_free) >= 2:
        kinds.extend(("swap-b", "shear-b-to-b"))
    if b_free:
        kinds.append("negate-b")
    if not kinds:
        return IntMatrix.identity(n)
    kind = rng.choice(kinds)
    if kind == "shear-a-to-b":
        i = rng.choice(a_free)
        j = rng.choice(b_all)
        c = rng.choice((-2, 2)) if g_safe else rng.choice((-2, -1, 1, 2))
        m[j][i] += c
    elif kind == "torsion-translate":
        t = rng.choice(a_tor)
        i = rng.choice(a_free + b_free)
        m[t][i] += 1
    elif kind == "negate-a":
        for i in range(na):
            m[i][i] = -m[i][i]
    elif kind == "swap-b":
        i, j = rng.sample(b_free, 2)
        m[i], m[j] = m[j], m[i]
    elif kind == "negate-b":
        i = rng.choice(b_free)
        m[i][i] = -m[i][i]
    elif kind == "shear-b-to-b":
        i, j = rng.sample(b_free, 2)
        c = rng.choice((-2, 2)) if g_safe else rng.choice((-2, -1, 1, 2))
        m[j][i] += c
    return IntMatrix.from_rows(m, cols=n)


def rand_split_instance(rng, *, torsion_slot=None, with_g=False,
                        n_moves=5, radius=2) -> SplitInstance:
    """Random split module with an automorphism built from elementary
    form-preserving moves.

    torsion_slot is None, "a" or "b": where a single Z/2 generator goes
    (the other side stays torsion-free, matching the projection-lemma
    hypothesis).  With with_g, a monotone value table of the shape
    base(a) + penalty(b) is installed; base depends on the free A
    coordinates through absolute values and penalty on B-coordinate
    parities, so the restricted move set preserves it exactly.
    """
    ra = rng.randint(1, 2)
    rb = rng.randint(1, 2)
    a_orders = (0,) * ra + ((2,) if torsion_slot == "a" else ())
    b_orders = (0,) * rb + ((2,) if torsion_slot == "b" else ())
    q_free = rand_nondegenerate_symmetric(rng, ra)
    na = len(a_orders)
    qa_rows = [[0] * na for _ in range(na)]
    for i in range(ra):
        for j in range(ra):
            qa_rows[i][j] = q_free[i, j]
    a_part = decorated_module(a_orders, IntMatrix.from_rows(qa_rows, cols=na))
    b_part = decorated_module(b_orders)

    base_w = rng.randint(0, 2)
    pen_w = rng.randint(0, 2)
    gvalues = None
    if with_g:
        orders = a_orders + b_orders
        gvalues = {}
        for key in box_keys(orders, radius):
            base = base_w * sum(abs(key[i]) for i in range(ra))
            pen = pen_w * sum(key[i] % 2 for i in range(na, len(orders)))
            gvalues[key] = base + pen
    split = split_module(a_part, b_part, gvalues)

    n = split.total.ngens
    mat = IntMatrix.identity(n)
    for _ in range(n_moves):
        mat = _elementary_move(rng, a_orders, b_orders, g_safe=with_g).mul(mat)
    phi = module_hom(split.total, split.total, mat)
    assert phi.is_isomorphism()
    assert preserves_form(phi)
    return SplitInstance(split, phi, base_w, pen_w)


# ---------------------------------------------------------------------------
# decorated-module pairs for equivalence testing


def rand_decorated(rng, rank=2, max_entry=2, radius=2, value_range=(0, 3),
                   nondegenerate=False, torsion=False):
    orders = (0,) * rank + ((2,) if torsion else ())
    n = len(orders)
    if nondegenerate:
        q_free = rand_nondegenerate_symmetric(rng, rank, max_entry)
    else:
        q_free = rand_symmetric(rng, rank, max_entry)
    rows = [[0] * n for _ in range(n)]
    for i in range(rank):
        for j in range(rank):
            rows[i][j] = q_free[i, j]
    table = {}
    for key in box_keys(orders, radius):
        table[key] = rng.randint(*value_range)
    table[(0,) * n] = 0
    return decorated_module(orders, IntMatrix.from_rows(rows, cols=n), table)


def equivalent_copy(rng, d):
    """An equivalent module: conjugate by a signed free-generator
    permutation, pushing the value table forward through the witness."""
    n = d.ngens
    free = list(d.free_indices)
    perm_free = free[:]
    rng.shuffle(perm_free)
    pi = list(range(n))
    for src, dst in zip(free, perm_free):
        pi[src] = dst
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        sign = rng.choice((1, -1)) if d.orders[i] == 0 else 1
        rows[pi[i]][i] = sign
    w = IntMatrix.from_rows(rows, cols=n)
    orders2 = [0] * n
    for i in range(n):
        orders2[pi[i]] = d.orders[i]
    orders2 = tuple(orders2)
    # the witness W satisfies W^T Q2 W = Q1 with W a signed permutation,
    # so Q2 = W Q1 W^T
    q2 = w.mul(d.form).mul(w.transpose())
    probe = decorated_module(orders2, q2)
    table2 = {}
    for key, val in d.gvalues.items():
        table2[probe.key(w.apply(key))] = val
    return decorated_module(orders2, q2, table2)

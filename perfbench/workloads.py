"""The three benchmark workloads: seeded inputs, operations and answer checks.

A workload turns (seed, cycle index) into a list of operations.  Every
cycle follows the same fixed plan of operation classes (kind, bound,
size range, ...), so each run executes the same mix whatever the seed;
the seed chooses the entries and the sizes within each range.  Inputs
are never filtered by how an operation behaves or how long it takes.

An operation is a zero-argument callable that calls into kirbycalc and
returns the raw answer, plus a check that verifies the answer from its
construction.  Checks run outside the timed region and use the
benchmark's own arithmetic (arith.py) wherever the answer is a number.
Program functions are looked up as module attributes at call time so
that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import arith
from kirbycalc import cli, cobordism, forms, genus, handlebody, intmat, legendrian, textio


class CheckFailed(Exception):
    """An answer disagrees with what its construction guarantees."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def digest(obj) -> str:
    """A hash of the exact answer, for comparing traced and untraced runs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, bool) or x is None:
            h.update(repr(x).encode())
        elif isinstance(x, int):
            h.update(b"i" + x.to_bytes(x.bit_length() // 8 + 1, "little", signed=True))
        elif isinstance(x, str):
            h.update(b"s" + x.encode())
        elif isinstance(x, (tuple, list)):
            h.update(b"(%d" % len(x))
            for y in x:
                feed(y)
            h.update(b")")
        elif isinstance(x, intmat.IntMatrix):
            h.update(b"M%d,%d" % x.shape())
            feed(x.entries)
        elif isinstance(x, intmat.SmithDecomposition):
            feed((x.u, x.d, x.v))
        elif isinstance(x, intmat.FgAbelianGroup):
            feed((x.free_rank, x.torsion_divisors))
        elif isinstance(x, forms.EquivalenceResult):
            feed((x.equivalent, x.witness.matrix if x.witness else None, len(x.undecided)))
        elif hasattr(x, "before") and hasattr(x, "after"):
            feed((x.verdict, x.mode, x.before, x.after))
        else:
            raise TypeError(f"cannot digest {type(x).__name__}")

    feed(obj)
    return h.hexdigest()


def rng_for(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


# ---------------------------------------------------------------------------
# intmat-dense


def _dense(rng, r, c, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


def _imat(rows, cols):
    return intmat.IntMatrix.from_rows(rows, cols=cols)


def check_smith(m, s):
    r, c = len(m), len(m[0])
    u, d, v = (list(map(list, x.entries)) for x in (s.u, s.d, s.v))
    require(s.u.shape() == (r, r) and s.v.shape() == (c, c) and s.d.shape() == (r, c),
            "transform shapes")
    diag = [d[i][i] for i in range(min(r, c))]
    require(all(d[i][j] == 0 for i in range(r) for j in range(c) if i != j), "D is not diagonal")
    require(all(x >= 0 for x in diag), "negative Smith diagonal entry")
    nz = [x for x in diag if x]
    require(diag[:len(nz)] == nz, "zeros before nonzero diagonal entries")
    require(all(b % a == 0 for a, b in zip(nz, nz[1:])), "divisibility chain broken")
    require(len(nz) == arith.rank(m), "Smith rank differs from the rank of M")
    require(arith.smith_identity_holds(u, m, v, d), "U * M * V != D")
    require(arith.is_unimodular_mod(u) and arith.is_unimodular_mod(v), "U or V not unimodular")
    if r == c:
        prod = 1
        for x in diag:
            prod *= x
        require(prod == abs(arith.det_exact(m)), "diagonal product != |det M|")


def check_cokernel(m, g):
    r, c = len(m), len(m[0])
    rank = arith.rank(m)
    require(g.free_rank == r - rank, "cokernel free rank")
    if r == c and rank == r:
        require(g.torsion_order == abs(arith.det_exact(m)), "cokernel order != |det M|")
    elif rank == c:
        # full column rank: the torsion order is the gcd of the c x c minors,
        # so it divides every one of them
        for rows in (range(c), range(r - c, r)):
            minor = arith.det_exact([m[i] for i in rows])
            require(minor % g.torsion_order == 0, "torsion order does not divide a maximal minor")


def check_kernel(m, k):
    r, c = len(m), len(m[0])
    want = c - arith.rank(m)
    require(k.shape() == (c, want), "kernel basis has the wrong number of columns")
    kk = [list(row) for row in k.entries]
    if want:
        require(all(x == 0 for row in arith.matmul(m, kk) for x in row), "M * K != 0")
        require(arith.rank(arith.transpose(kk)) == want, "kernel columns are dependent")


def intmat_cycle(seed, index):
    rng = rng_for("intmat-dense", seed, index)
    ops = []

    def snf_op(call, r, c):
        m = _dense(rng, r, c)
        a = _imat(m, c)
        if call == "smith_normal_form":
            return Op(f"snf:{r}x{c}", lambda: intmat.smith_normal_form(a),
                      lambda s: check_smith(m, s))
        if call == "cokernel":
            return Op(f"cokernel:{r}x{c}", lambda: intmat.cokernel(a),
                      lambda g: check_cokernel(m, g))
        if call == "kernel_basis":
            return Op(f"kernel:{r}x{c}", lambda: intmat.kernel_basis(a),
                      lambda k: check_kernel(m, k))
        x0 = [rng.randint(-3, 3) for _ in range(c)]
        b = tuple(arith.matvec(m, x0))

        def check_solve(x):
            require(x is not None, "solvable system reported unsolvable")
            require(tuple(arith.matvec(m, x)) == b, "a * x != b")

        return Op(f"solve:{r}x{c}", lambda: intmat.solve_integer(a, b), check_solve)

    for call in SNF_CALLS:
        for _ in range(DENSE_SNF_PER_CALL):
            r = rng.randint(*DENSE_SNF_ROWS)
            c = min(max(r + rng.randint(-DENSE_SKEW, DENSE_SKEW), DENSE_SNF_ROWS[0]), DENSE_MAX)
            ops.append(snf_op(call, r, c))
    for _ in range(DENSE_DET_PER_CYCLE):
        n = rng.randint(DENSE_SNF_ROWS[0], DENSE_SQUARE_MAX)
        m = _dense(rng, n, n)
        want = arith.det_exact(m)
        a = _imat(m, n)

        def check_det(got, want=want):
            require(got == want, "determinant")

        ops.append(Op(f"det:{n}x{n}", lambda a=a: intmat.determinant(a), check_det))
    for _ in range(DENSE_SIG_PER_CYCLE):
        n = rng.randint(DENSE_SNF_ROWS[0], DENSE_SQUARE_MAX)
        p = _dense(rng, n, n)
        while arith.det_mod(p, arith.PRIMES[0]) == 0:
            p[0][0] += 1
        signs = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(n)]
        q = [[sum(p[k][i] * signs[k] * p[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        want = (sum(1 for s in signs if s > 0), sum(1 for s in signs if s < 0), 0)
        a = _imat(q, n)

        def check_sig(got, want=want):
            require(tuple(got) == want, "signature of P^T D P differs from the signs of D")

        ops.append(Op(f"signature:{n}x{n}", lambda a=a: intmat.signature(a), check_sig))
    rng.shuffle(ops)
    return ops


SNF_CALLS = ("smith_normal_form", "cokernel", "kernel_basis", "solve_integer")
# Per cycle and SNF-based call: DENSE_SNF_PER_CALL matrices with 12..22 rows
# and up to DENSE_SKEW more or fewer columns (at most 24).  Larger square SNF
# inputs are left out: their time per matrix varies 100-fold (CV about 1.6;
# one 24 x 24 matrix took 1.4 s against a 50 ms mean), which a run of a few
# dozen such matrices does not average out.  Determinants and signatures
# take square matrices of 12..28 rows.
DENSE_SNF_PER_CALL = 12
DENSE_SNF_ROWS = (12, 22)
DENSE_SKEW = 4
DENSE_MAX = 24
DENSE_SQUARE_MAX = 28
DENSE_DET_PER_CYCLE = 9
DENSE_SIG_PER_CYCLE = 3


# ---------------------------------------------------------------------------
# equiv-search


def _box(orders, radius=1):
    ranges = [range(-radius, radius + 1) if t == 0 else range(t) for t in orders]
    return [tuple(v) for v in itertools.product(*ranges)]


def _reduce(orders, vec):
    return tuple(x if t == 0 else x % t for x, t in zip(vec, orders))


@dataclass
class ModuleSpec:
    """A decorated module in the benchmark's own terms."""

    orders: tuple
    form: list
    table: dict

    def build(self):
        n = len(self.orders)
        return forms.decorated_module(self.orders, _imat(self.form, n), self.table)


def _module(rng, rank, torsion):
    orders = (0,) * rank + ((2,) if torsion else ())
    n = len(orders)
    while True:
        q = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                q[i][j] = q[j][i] = rng.randint(-2, 2)
        if arith.det_exact(q) != 0:
            break
    form = [[q[i][j] if i < rank and j < rank else 0 for j in range(n)] for i in range(n)]
    table = {key: rng.randint(0, 3) for key in _box(orders)}
    table[(0,) * n] = 0
    return ModuleSpec(orders, form, table)


def _pair(rng, rank, torsion, equivalent):
    """(d1, d2): d2 is the push-forward of d1 along a signed permutation of
    the free generators.  For a non-equivalent pair one class of d1 holds
    the value 9, which no class of d2 holds, so no witness can exist."""
    d1 = _module(rng, rank, torsion)
    n = len(d1.orders)
    perm = list(range(rank))
    rng.shuffle(perm)
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        w[perm[i] if i < rank else i][i] = rng.choice((1, -1)) if i < rank else 1
    wt = arith.transpose(w)
    form2 = arith.matmul(arith.matmul(w, d1.form), wt)
    table2 = {_reduce(d1.orders, arith.matvec(w, k)): v for k, v in d1.table.items()}
    if not equivalent:
        key = rng.choice(sorted(k for k in d1.table if any(k)))
        d1.table[key] = 9
    return d1, ModuleSpec(d1.orders, form2, table2)


def check_witness(hom, d1: ModuleSpec, d2: ModuleSpec, bound):
    """W^T Q2 W = Q1, W invertible, and W carries table 1 into table 2."""
    w = [list(row) for row in hom.matrix.entries]
    n = len(d1.orders)
    require(len(w) == len(d2.orders) and all(len(r) == n for r in w), "witness shape")
    require(all(abs(x) <= bound for row in w for x in row), "witness entry outside the bound")
    got = arith.matmul(arith.matmul(arith.transpose(w), d2.form), w)
    require(got == d1.form, "W^T Q2 W != Q1")
    free = [i for i, t in enumerate(d1.orders) if t == 0]
    tors = [i for i, t in enumerate(d1.orders) if t != 0]
    require(abs(arith.det_exact([[w[i][j] for j in free] for i in free])) == 1,
            "witness is not invertible on the free part")
    require(all(w[i][i] % 2 == 1 for i in tors), "witness is not invertible on torsion")
    for key, val in d1.table.items():
        img = _reduce(d2.orders, arith.matvec(w, key))
        require(d2.table.get(img) == val, "witness does not carry the value table")


def _sum_spec(d: ModuleSpec, z: ModuleSpec) -> ModuleSpec:
    """X (+) Z with values copied onto a (+) 0 and onto a (+) b for b pinned to 0."""
    n, nz = len(d.orders), len(z.orders)
    form = [row + [0] * nz for row in d.form] + [[0] * n + row for row in z.form]
    table = {}
    for zkey, zval in [((0,) * nz, None)] + sorted(z.table.items()):
        if zval is None or (any(zkey) and zval == 0):
            for key, val in d.table.items():
                table[key + zkey] = val
    return ModuleSpec(d.orders + z.orders, form, table)


def _spec_of(d) -> ModuleSpec:
    return ModuleSpec(d.orders, [list(r) for r in d.form.entries],
                      {k: int(str(v)) for k, v in d.gvalues.items()})


def _check_verdict(res, d1, d2, bound, equivalent):
    if equivalent:
        require(res.equivalent and res.witness is not None, "equivalent pair not found equivalent")
        check_witness(res.witness, d1, d2, bound)
    else:
        require(not res.equivalent and res.witness is None and res.verdict == "NOT-WITHIN-BOUND",
                "non-equivalent pair reported equivalent")


def _zero_module(rank):
    orders = (0,) * rank
    return ModuleSpec(orders, [[0] * rank for _ in range(rank)],
                      {k: 0 for k in _box(orders)} if rank else {})


def equiv_cycle(seed, index):
    rng = rng_for("equiv-search", seed, index)
    ops = []
    for kind, rank, torsion, bound in EQUIV_PLAN:
        for equivalent in (True, False):
            d1, d2 = _pair(rng, rank, torsion, equivalent)
            ops.append(_equiv_op(kind, d1, d2, bound, equivalent))
    rng.shuffle(ops)
    return ops


def _equiv_op(kind, d1, d2, bound, equivalent):
    label = f"{kind}:{len(d1.orders)}g{'t' if 2 in d1.orders else ''}:b{bound}:" \
            f"{'eq' if equivalent else 'neq'}"
    m1, m2 = d1.build(), d2.build()
    if kind == "equiv":
        return Op(label, lambda: forms.algebraically_equivalent(m1, m2, bound),
                  lambda res: _check_verdict(res, d1, d2, bound, equivalent))
    if kind in ("sum-h2zero", "sum-nondegenerate"):
        mode = "h2zero" if kind == "sum-h2zero" else "nondegenerate"
        z = _zero_module(0 if mode == "h2zero" else 1)
        mz = z.build()

        def check_sum(rep):
            require(rep.verdict == "CONSISTENT", "stability verdict is not CONSISTENT")
            _check_verdict(rep.before, d1, d2, bound, equivalent)
            _check_verdict(rep.after, _sum_spec(d1, z), _sum_spec(d2, z), bound, equivalent)

        return Op(label, lambda: genus.sum_stability_check(m1, m2, mz, mz, mode, bound),
                  check_sum)
    k_rank = 0 if kind == "quasi-h2iso" else 1
    k = _zero_module(k_rank).build()

    def models():
        out = []
        for x in (m1, m2):
            cob = cobordism.trivial_ends_model(k)
            glue = forms.module_hom(cob.h2_m, x, intmat.IntMatrix.zeros(x.ngens, 0))
            out.append(cobordism.AttachmentModel(x=x, cob=cob, glue=glue))
        return out

    def check_quasi(rep):
        require(rep.verdict == "CONSISTENT", "stability verdict is not CONSISTENT")
        _check_verdict(rep.before, d1, d2, bound, equivalent)
        a1, a2 = models()
        after1 = _spec_of(cobordism.attach(a1).module)
        after2 = _spec_of(cobordism.attach(a2).module)
        _check_verdict(rep.after, after1, after2, bound, equivalent)

    def run():
        a1, a2 = models()
        return cobordism.stability_check_quasi(a1, a2, bound)

    return Op(label, run, check_quasi)


# (kind, free rank, Z/2 generator, bound).  Every searched module has at
# most 4 generators (forms.SEARCH_RANK_LIMIT) and at most 125 candidate
# columns, (2 * bound + 1) ** generators <= 125.  Rank 3 + Z/2, 4-generator
# stability checks and bound-2 non-degenerate stability checks are left
# out: their search time swings from 0.1 s to seconds with the random form.
EQUIV_PLAN = (
    ("equiv", 2, False, 1), ("equiv", 2, False, 2), ("equiv", 2, True, 1),
    ("equiv", 2, True, 2), ("equiv", 3, False, 1), ("equiv", 3, False, 2),
    ("equiv", 4, False, 1),
    ("sum-h2zero", 2, True, 1), ("sum-h2zero", 3, False, 2),
    ("sum-nondegenerate", 2, False, 1), ("quasi-nondegenerate", 2, False, 1),
    ("quasi-h2iso", 2, False, 2), ("quasi-h2iso", 2, True, 1),
)


# ---------------------------------------------------------------------------
# cli-handlebody


def _front(rng):
    right = rng.randint(1, 3)
    up = rng.randint(0, 2 * right)
    return legendrian.FrontCounts(writhe=rng.randint(-3, 3), right_cusps=right,
                                  up_cusps=up, down_cusps=2 * right - up)


def _random_base(rng):
    """3-10 dotted handles, 6-20 framed 2-handles, a front on every handle."""
    k, n = rng.randint(3, 10), rng.randint(6, 20)
    handles = []
    for _ in range(n):
        word = tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(1, 4)))
        handles.append((word, rng.randint(-3, 3), _front(rng)))
    return handlebody.handlebody(k, handles, _linking(rng, [h[1] for h in handles]))


def _linking(rng, framings):
    n = len(framings)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = framings[i]
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    return _imat(rows, n)


def _triangular_base(rng):
    """5-10 dotted handles and n <= k + 1 2-handles whose run-over matrix
    has a unit lower-triangular n x n block (the last handle is free when
    n = k + 1), so H2 has rank at most 1."""
    k = rng.randint(5, 10)
    n = rng.randint(6, k + 1)
    handles = []
    for i in range(n):
        if i < k:
            word = [i + 1] + [rng.choice((1, -1)) * rng.randint(i + 2, k)
                              for _ in range(rng.randint(0, 3)) if i + 2 <= k]
        else:
            word = [rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(1, 3))]
        rng.shuffle(word)
        handles.append((tuple(word), rng.randint(-3, 3), _front(rng)))
    return handlebody.handlebody(k, handles, _linking(rng, [h[1] for h in handles]))


def _cork_sum(rng, count):
    out = handlebody.mazur_cork_template(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    for _ in range(count - 1):
        cork = handlebody.mazur_cork_template(rng.randint(1, 3), rng.randint(1, 3),
                                              rng.randint(1, 3))
        out = handlebody.boundary_sum(out, cork)
    return out


def _homology_preserving(rng, h):
    """A w-move, canceling pairs and a sum with contractible corks."""
    out = handlebody.w_minus(h, rng.randrange(h.n), rng.randint(1, 3))
    out = handlebody.attach_canceling_pairs(out, rng.randint(0, 10))
    if rng.random() < 0.5:
        out = handlebody.boundary_sum(out, _cork_sum(rng, rng.randint(1, 3)))
    return out


def _stanzas(text):
    """The canonical file as (one_handles, [(framing, front counts or None)])."""
    k, handles, fronts = None, {}, {}
    for line in text.splitlines()[1:]:
        toks = line.split()
        if toks[0] == "one_handles":
            k = int(toks[1])
        elif toks[0] == "two_handle":
            handles[int(toks[1])] = int(toks[-1].split("=")[1])
        elif toks[0] == "front":
            fronts[int(toks[1])] = [int(t.split("=")[1]) for t in toks[2:]]
    return k, [(handles[i], fronts.get(i)) for i in sorted(handles)]


def _pairs(out):
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def check_transformer(res, want_k, want_n):
    code, out, err = res
    require(code == 0 and not err, f"exit code {code}: {err.strip()}")
    require(textio.render_handlebody(textio.parse_handlebody(out)) == out,
            "output is not render/parse byte-stable")
    k, handles = _stanzas(out)
    require((k, len(handles)) == (want_k, want_n), "handle counts of the output")


def write_input(directory, name, h):
    """Write one operation's own input file; returns its path."""
    path = os.path.join(directory, name + ".kc")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(textio.render_handlebody(h))
    return path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _query_ok(res):
    code, out, err = res
    require(code == 0 and not err, f"exit code {code}: {err.strip()}")
    return _pairs(out)


def cli_cycle(seed, index, directory):
    rng = rng_for("cli-handlebody", seed, index)
    ops = []
    for i, kind in enumerate(CLI_PLAN):
        tag = f"s{seed}-c{index}-{i}"
        ops.append(_cli_op(rng, kind, tag, directory))
    rng.shuffle(ops)
    return ops


def _cli_op(rng, kind, tag, directory):
    if kind in ("homology", "boundary"):
        base = _random_base(rng)
        moved = _homology_preserving(rng, base)
        path = write_input(directory, tag, moved)

        def check(res):
            got = _query_ok(res)
            want = handlebody.homology(base)
            require(got["boundary-h1"] == str(want.boundary_h1), "boundary H1 changed by the moves")
            if kind == "homology":
                require(got["h1"] == str(want.h1), "H1 changed by the moves")
                require(got["h2-rank"] == str(want.h2_rank), "H2 rank changed by the moves")
            else:
                det = int(got["block-determinant"])
                bh = want.boundary_h1
                require(abs(det) == (0 if bh.free_rank else bh.torsion_order),
                        "|block determinant| != |boundary H1|")

        return Op(f"{kind}:{base.k + base.n}->{moved.k + moved.n}",
                  lambda: run_cli([kind, path]), check)
    if kind in ("homology-cork", "boundary-cork"):
        corks = _cork_sum(rng, rng.randint(5, 20))
        corks = handlebody.attach_canceling_pairs(corks, rng.randint(0, 5))
        path = write_input(directory, tag, corks)
        command = kind.split("-")[0]

        def check(res):
            got = _query_ok(res)
            require(got["boundary-h1"] == "0", "cork sum boundary is not a homology sphere")
            if command == "homology":
                require(got["h1"] == "0" and got["h2-rank"] == "0", "cork sum homology not trivial")
            else:
                require(abs(int(got["block-determinant"])) == 1, "cork sum |det| != 1")

        return Op(f"{kind}:{corks.k + corks.n}", lambda: run_cli([command, path]), check)
    if kind == "hihc":
        base = _triangular_base(rng)
        moved = handlebody.w_minus(base, rng.randrange(base.n), rng.randint(1, 3))
        p1, p2 = write_input(directory, tag + "-a", base), write_input(directory, tag + "-b", moved)

        def check(res):
            require(_query_ok(res).get("verdict") == "PASS", "hihc(h, w_minus(h)) did not PASS")

        return Op(f"hihc:{base.k + base.n}", lambda: run_cli(["hihc", "--bound", "1", p1, p2]),
                  check)
    if kind == "steinify":
        base = _random_base(rng)
        path = write_input(directory, tag, base)

        def check(res):
            # every tb-raising move adds one dotted and one framed handle
            k, handles = _stanzas(res[1])
            added = (k or 0) - base.k
            check_transformer(res, base.k + added, base.n + added)
            for framing, front in handles:
                require(front is not None, "steinify output lacks a front")
                writhe, right = front[0], front[1]
                require(framing == writhe - right - 1, "framing != tb - 1")

        return Op(f"steinify:{base.k + base.n}", lambda: run_cli(["steinify", path]), check)
    if kind == "wplus":
        h = _homology_preserving(rng, _random_base(rng))
        idx, p = rng.randint(1, h.n), rng.randint(1, 3)
        path = write_input(directory, tag, h)
        return Op(f"wplus:{h.k + h.n}", lambda: run_cli(["wplus", path, str(idx), str(p)]),
                  lambda res: check_transformer(res, h.k + 1, h.n + 1))
    if kind == "sum":
        h1 = _homology_preserving(rng, _random_base(rng))
        h2 = _cork_sum(rng, rng.randint(1, 10)) if rng.random() < 0.5 else _random_base(rng)
        p1, p2 = write_input(directory, tag + "-a", h1), write_input(directory, tag + "-b", h2)
        return Op(f"sum:{h1.k + h1.n + h2.k + h2.n}",
                  lambda: run_cli(["sum", "--boundary", p1, p2]),
                  lambda res: check_transformer(res, h1.k + h2.k, h1.n + h2.n))
    if kind == "info":
        h = _homology_preserving(rng, _random_base(rng))
        path = write_input(directory, tag, h)

        def check(res):
            got = _query_ok(res)
            require(got["one-handles"] == str(h.k) and got["two-handles"] == str(h.n),
                    "info handle counts")
            require(got["framings"] == " ".join(str(t.framing) for t in h.two_handles),
                    "info framings")

        return Op(f"info:{h.k + h.n}", lambda: run_cli(["info", path]), check)
    raise ValueError(kind)


CLI_PLAN = ("homology", "homology", "homology", "boundary", "boundary",
            "homology-cork", "boundary-cork", "hihc", "hihc", "steinify", "steinify",
            "wplus", "wplus", "sum", "sum", "info", "info")


# ---------------------------------------------------------------------------


def make_cycle(workload, seed, index, scratch_dir):
    """The operations of one cycle; cli files are written under scratch_dir."""
    if workload == "intmat-dense":
        return intmat_cycle(seed, index)
    if workload == "equiv-search":
        return equiv_cycle(seed, index)
    if workload == "cli-handlebody":
        return cli_cycle(seed, index, scratch_dir)
    raise ValueError(f"unknown workload {workload!r}")

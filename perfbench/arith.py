"""The benchmark's own integer arithmetic, used only to check answers.

Nothing here imports kirbycalc: every answer the program returns is
verified by code that shares none of its algorithms.  Identities whose
operands carry transform entries of 10^4 bits and more (U * M * V = D,
det U = +-1) are verified modulo several fixed primes; a wrong answer
passes only if every prime divides its error, which the fixed, unrelated
primes below make negligible for inputs that were not built against
them.
"""

from __future__ import annotations

PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007)


def matmul(a, b):
    """Exact product of two row-tuple matrices."""
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def reduce_mod(a, p):
    return [[x % p for x in row] for row in a]


def matmul_mod(a, b, p):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def _echelon_mod(a, p):
    """Row-reduce a copy of a modulo the prime p; returns (rank, det)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank = 0
    det = 1
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] % p), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        inv = pow(m[rank][c], -1, p)
        det = det * m[rank][c] % p
        for r in range(rank + 1, rows):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    if rank < rows or rows != cols:
        det = 0
    return rank, det % p


def rank_mod(a, p):
    return _echelon_mod(a, p)[0]


def det_mod(a, p):
    return _echelon_mod(a, p)[1]


def rank(a):
    """Rank over Q: the largest rank modulo any of the check primes."""
    if not a or not a[0]:
        return 0
    return max(rank_mod(a, p) for p in PRIMES)


def det_exact(a):
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def is_unimodular_mod(a):
    """det a = +-1 modulo every check prime."""
    return all(det_mod(reduce_mod(a, p), p) in (1, p - 1) for p in PRIMES)


def smith_identity_holds(u, m, v, d):
    """U * M * V == D modulo every check prime."""
    for p in PRIMES:
        lhs = matmul_mod(matmul_mod(reduce_mod(u, p), m, p), reduce_mod(v, p), p)
        if lhs != reduce_mod(d, p):
            return False
    return True


def transpose(a):
    return [list(col) for col in zip(*a)]

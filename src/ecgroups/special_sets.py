"""Index sets at a fixed field degree, and their exceptional structure.

For a degree m and cofactor k, the candidate set collects the n whose
shape (n, k) has an m-th-power candidate q = p^m in the trace window,
and the realizable set keeps those passing the full realizability test.
Degree 2 admits a complete classification of the gap between the two;
degree >= 3 is finite per cofactor and searched within explicit bounds;
every degree is hit for every n by an explicit polynomial identity.
At degree 1 the set is the column k of the prime-witness set, which the
cell kernel of counting decides over one column; the square shapes
needing a proper prime power read both k = 1 columns of
counting.membership_grid. At degree m >= 2 one numpy walk finds the
prime-power hits and realizability.hits_realizable decides them; bounded
scans re-derive the Diophantine facts behind the paper's classification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import arith, counting
from .realizability import hits_realizable

DEFAULT_DEGREE_MAX = 40
DEFAULT_Q_MAX = 10 ** 12

FORM_NAMES = ("x^2+1", "x^2+x+1", "x^2-x+1")
_FORM_B = {"x^2+1": 0, "x^2+x+1": 1, "x^2-x+1": -1}


class DegreeTwoTag(enum.Enum):
    PRIME_SQUARE_PLUS_ONE = "prime-square-plus-one"
    PRIME_QUADRATIC = "prime-quadratic"
    PERFECT_SQUARE = "perfect-square"
    NOT_EXCEPTIONAL = "not-exceptional"


@dataclass(frozen=True)
class ExceptionalClass:
    """Degree-2 exception data: k = p^2+1, k = p^2 +/- p + 1, or k = h^2.

    sign is +1 for k = p^2+p+1 and -1 for k = p^2-p+1; unused payload
    fields stay None.
    """

    tag: DegreeTwoTag
    p: int | None = None
    sign: int | None = None
    h: int | None = None


@dataclass(frozen=True)
class HighDegreeWitness:
    """One certifying identity p^m = k n^2 + ell n + 1 with m >= 3."""

    n: int
    p: int
    m: int
    ell: int


@dataclass(frozen=True)
class FixedDegreeWitness:
    """Witness tuple for the identity construction at fixed degree.

    For degree m >= 2: p is prime with p = 1 mod n, d = (p-1)/n,
    ell = m d, and k satisfies p^m = k n^2 + ell n + 1 (k may exceed
    64 bits for large m). For m = 1: p = 1 mod n^2 and d = k = (p-1)/n^2.
    """

    p: int
    d: int
    k: int
    ell: int


# q values a step of the walk takes; its temporaries hold about 200 bytes a value
_HITS_CHUNK = 1 << 16


def _prime_power_hits(k, T, q):
    """(i, n, ell) as int64 arrays: every q[i] = k n^2 + ell n + 1 with
    ell^2 <= 4k and n <= T, for the int64 array q of values >= 2.

    Inverted by n: (q - 1)/k = n^2 + ell n / k and |ell| <= 2 sqrt(k) give
    (n - 2)^2 <= (q - 1)/k < (n + 1)^2 for n >= 2, so c <= n <= c + 2 for
    c = isqrt((q - 1) // k). The rounded float root is c or c + 1, within
    10^-6 of the true one below 2^63, so the four n from one below it (1 to
    4 near 0) hold c, c + 1 and c + 2. Hits come in ascending i, then
    descending n (ascending ell); k T < 2^63 keeps k n exact up to T.
    """
    out = []
    for lo in range(0, q.size + 1, _HITS_CHUNK):  # once at least, for an empty q
        q1 = q[lo:lo + _HITS_CHUNK, None] - 1
        n = np.maximum(np.rint(np.sqrt(q1 / k)).astype(np.int64), 2) + np.arange(2, -2, -1)
        s, r = np.divmod(q1, n)
        ell = s - k * n
        i, j = ((r == 0) & (np.abs(ell) <= math.isqrt(4 * k)) & (n <= T)).nonzero()
        out.append((i + lo, n[i, j], ell[i, j]))
    return out[0] if len(out) == 1 else tuple(map(np.concatenate, zip(*out)))


def _distinct(ns):
    """The distinct entries of the int64 array ns, ascending. A sort and a
    neighbour mask: np.unique took 40 times as long at 8 10^5 entries."""
    ns = np.sort(ns)
    return np.concatenate((ns[:1], ns[1:][ns[1:] != ns[:-1]]))


def _n_set(m, k, T):
    """(n, realized): the n of every degree-m hit, and which hits realize it."""
    if m < 1:
        raise ValueError("degree must be positive")
    vmax = arith.candidate_bound(T, k)
    if m == 1:
        # over F_p every prime candidate is a witness: the column k of the
        # prime-witness set, from the cell kernel
        ctx = counting._SieveContext(T, k, ks=[k])
        ns = np.flatnonzero(counting._row_kernel(ctx, range(1, T + 1))[:, 1]) + 1
        return ns, np.ones(ns.size, dtype=bool)
    # the primes in [1, r] are empty below r = 2
    p = arith.primes_in_range(1, arith.iroot(vmax, m))
    q = p ** m
    i, n, _ = _prime_power_hits(k, T, q)
    return n, hits_realizable(n, k, q[i], p[i], m)


def candidate_n_set(m, k, T):
    """All n <= T with an exact degree-m prime-power candidate for (n, k)."""
    return _distinct(_n_set(m, k, T)[0]).tolist()


def realizable_n_set(m, k, T):
    """All n <= T realized by some field of size p^m; subset of the candidates."""
    n, real = _n_set(m, k, T)
    return _distinct(n[real]).tolist()


# ---------------------------------------------------------------------------
# degree 2: the exceptional classification
# ---------------------------------------------------------------------------

def degree_two_classify(k):
    """Which degree-2 exception family k belongs to, if any.

    The three families are pairwise exclusive: k = p^2+1 = h^2 would force
    (h-p)(h+p) = 1, and p^2 +/- p + 1 agreeing with either of the others
    collapses the same way.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k >= 2:
        r = math.isqrt(k - 1)
        if r * r == k - 1 and r % 4 == 1 and arith.is_prime(r):
            return ExceptionalClass(DegreeTwoTag.PRIME_SQUARE_PLUS_ONE, p=r)
    disc = 4 * k - 3
    r = math.isqrt(disc)
    if r * r == disc:
        for p, sign in (((r - 1) // 2, 1), ((r + 1) // 2, -1)):
            if p >= 2 and p % 3 == 1 and p * p + sign * p + 1 == k and arith.is_prime(p):
                return ExceptionalClass(DegreeTwoTag.PRIME_QUADRATIC, p=p, sign=sign)
    h = math.isqrt(k)
    if h * h == k and h > 1:
        return ExceptionalClass(DegreeTwoTag.PERFECT_SQUARE, h=h)
    return ExceptionalClass(DegreeTwoTag.NOT_EXCEPTIONAL)


def degree_two_predicted_gap(k, T):
    """The classification's predicted candidate-minus-realizable set up to T.

    Empty off the exception families, {1} for the two prime families, and
    {n : hn-1 or hn+1 prime} for k = h^2. At n = 1 the square-family rule
    can overpredict (see the k in {4, 9} note in the tests); ground truth
    comes from the definitional sets, not from this prediction.
    """
    if T < 1:
        raise ValueError("T must be positive")
    cls = degree_two_classify(k)
    if cls.tag is DegreeTwoTag.NOT_EXCEPTIONAL:
        return []
    if cls.tag in (DegreeTwoTag.PRIME_SQUARE_PLUS_ONE, DegreeTwoTag.PRIME_QUADRATIC):
        return [1]
    h = cls.h  # a prime p = +-1 mod h up to hT + 1 is hn +- 1 for n = (p -+ 1)/h
    p = arith.primes_in_range(2, h * T + 1)
    n = np.concatenate((p[p % h == 1] - 1, p[p % h == h - 1] + 1)) // h
    return _distinct(n[n <= T]).tolist()


def degree_two_gap(k, T):
    """The candidate-minus-realizable set at degree 2 up to T, from one walk."""
    n, real = _n_set(2, k, T)
    return np.setdiff1d(_distinct(n), _distinct(n[real]), assume_unique=True).tolist()


# ---------------------------------------------------------------------------
# degree >= 3: bounded exhaustive search
# ---------------------------------------------------------------------------

def high_degree_search(k, m_max=DEFAULT_DEGREE_MAX, q_max=DEFAULT_Q_MAX):
    """Every realizable degree >= 3 witness for cofactor k within the bounds.

    Complete for 3 <= m <= m_max and p^m <= q_max; the searched region is
    part of the result's meaning and callers should report it.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if m_max < 3:
        raise ValueError("m_max must be at least 3")
    if q_max < 8:
        raise ValueError("q_max admits no cube")
    arith._check_range(q_max, "q_max")
    arith._check_range(k, "k")
    q, p, m = arith.prime_power_table(arith.primes_in_range(2, arith.iroot(q_max, 3)), q_max)
    q, p, m = [x[m <= m_max] for x in (q, p, m)]
    # a hit has (sqrt(k) n - 1)^2 <= q_max, so n stays below this T, and k T < 2^63
    i, n, ell = _prime_power_hits(k, (math.isqrt(q_max) + 2) // math.isqrt(k), q)
    real = hits_realizable(n, k, q[i], p[i], m[i])
    found = sorted(zip(*(x[real].tolist() for x in (n, m[i], p[i], ell))))
    return [HighDegreeWitness(n, p, m, ell) for n, m, p, ell in found]


def high_degree_n_set(k, m_max=DEFAULT_DEGREE_MAX, q_max=DEFAULT_Q_MAX):
    """The distinct n values among the high-degree witnesses."""
    return sorted({e.n for e in high_degree_search(k, m_max, q_max)})


# ---------------------------------------------------------------------------
# every degree is realized for every n
# ---------------------------------------------------------------------------

def fixed_degree_witness(n, m):
    """The identity witness (p, d, k, ell) for index n at degree m.

    Uses X^m = (X^{m-2} + 2 X^{m-3} + ... + (m-1))(X-1)^2 + m(X-1) + 1 at
    X = p for the smallest prime p = 1 mod n not dividing m; for m = 1 the
    smallest odd prime p = 1 mod n^2 gives k = (p-1)/n^2 directly.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    # is_prime raises OverflowError once the search passes 2^63
    step, admissible = (n * n, lambda c: c % 2) if m == 1 else (n, lambda c: m % c)
    p = step + 1
    while not (admissible(p) and arith.is_prime(p)):
        p += step
    d = (p - 1) // step
    if m == 1:
        return FixedDegreeWitness(p=p, d=d, k=d, ell=0)
    coeff = 0
    for i in range(m - 1):
        coeff = coeff * p + (i + 1)
    k = coeff * d * d
    ell = m * d
    assert p ** m == k * n * n + ell * n + 1
    assert ell * ell <= 4 * k
    assert math.gcd(m * (p - 1), p) == 1
    return FixedDegreeWitness(p=p, d=d, k=k, ell=ell)


# ---------------------------------------------------------------------------
# the k = 1 column
# ---------------------------------------------------------------------------

def balanced_n_set(m, T):
    """All n <= T whose square group Z_n x Z_n is realized at degree m.

    This is realizable_n_set(m, 1, T), which C05 and the tests hold to the
    paper: n = p^(m/2) +/- 1 at even m, {18, 19} at m = 3, none at odd
    m >= 5, and at m = 1 the n with n^2 + 1 or n^2 +/- n + 1 prime.
    """
    return realizable_n_set(m, 1, T)


def balanced_prime_power_only(T):
    """The n <= T where Z_n x Z_n needs a proper prime power.

    Returns (members, sufficient): members from the definitions, and the
    subset satisfying the explicit sufficient condition (exactly one of
    n -/+ 1 prime, all three quadratics composite). The window of (n, 1) is
    (n - 1)^2, n^2 - n + 1, n^2 + 1, n^2 + n + 1, (n + 1)^2, and the squares
    are never prime, so the quadratics are all composite exactly when n is
    outside the prime-witness set. Both k = 1 columns come from
    counting.membership_grid, and n -/+ 1 from one sieve up to T + 1.
    """
    spi, spp = counting.membership_grid(T, 1)
    ns = np.arange(1, T + 1)
    outside = ~spi[1:, 1]
    prime = np.zeros(T + 2, dtype=bool)
    prime[arith.primes_in_range(2, T + 1)] = True
    members = ns[spp[1:, 1] & outside].tolist()
    sufficient = ns[outside & (prime[:-2] != prime[2:])].tolist()
    assert set(sufficient) <= set(members)
    return members, sufficient


# ---------------------------------------------------------------------------
# Diophantine fact tables, re-derived
# ---------------------------------------------------------------------------

def diophantine_solutions(form, m, x_max):
    """All (x, y) with y^m = form(x), |x| <= x_max, y >= 1.

    For m >= 2 the solutions are enumerated through y with exact root
    tests, which covers the whole x range; m = 1 degenerates to the
    identity scan.
    """
    if form not in _FORM_B:
        raise ValueError("form must be one of %s" % (FORM_NAMES,))
    if m < 1:
        raise ValueError("exponent must be positive")
    if x_max < 0:
        raise ValueError("x_max must be nonnegative")
    b = _FORM_B[form]
    fmax = x_max * x_max + abs(b) * x_max + 1
    if fmax > arith.LIMIT:
        raise OverflowError("scan bound exceeds the supported range")
    if m == 1:
        return [(x, x * x + b * x + 1) for x in range(-x_max, x_max + 1)]
    out = []
    for y in range(1, arith.iroot(fmax, m) + 1):
        # x^2 + b x + 1 = y^m at x = (-b +- r) / 2, r^2 = b^2 - 4 + 4 y^m
        disc = b * b - 4 + 4 * y ** m
        r = math.isqrt(disc)
        if r * r == disc:
            out.extend((x, y) for x in {(-b + r) // 2, (-b - r) // 2} if abs(x) <= x_max)
    out.sort()
    return out

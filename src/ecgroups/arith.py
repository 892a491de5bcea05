"""Exact integer number theory in the 64-bit range.

Primality here is deterministic: below 2^63 the Miller-Rabin witness tiers
used are known-exhaustive, so a composite never slips through.  That matters
because a single misclassified candidate flips a set membership downstream.
The tiers (_MR_TIERS) pair base sets with the least strong pseudoprime to
all of them: the first 1, 2, 5, 6 or 7 prime bases (OEIS A014233), and
(2, 7, 61) and (2, 13, 23, 1662803) (Jaeschke, Math. Comp. 61, 1993).  `is_prime_batch`
runs the same tiers over a numpy int64 array in one pass with no trial
division: the base-2 strong test, then each survivor's other bases; values
at or above BATCH_BOUND = 341,550,071,728,321 take the scalar test.  The
tiers are exhaustive for every odd value, so callers presieve small factors
for speed only.  Scalar values are plain Python ints (exact); range limits are
enforced explicitly so callers get an OverflowError instead of silently
huge computations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LIMIT = 1 << 63

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# Deterministic Miller-Rabin witness tiers: a value below a tier's bound is
# prime iff it is a strong probable prime to every base of the first tier whose
# bound exceeds it.  Each bound below 2^64 is the least strong pseudoprime to
# all of its tier's bases: (2), (2, 3), (2, 3, 5, 7, 11), (2, ..., 13) and
# (2, ..., 17) from OEIS A014233, (2, 7, 61) and (2, 13, 23, 1662803) from
# Jaeschke, Math. Comp. 61 (1993).  The last tier (Sinclair's bases) covers
# everything below 2^64.
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)


def _check_range(x, what="value"):
    if x >= LIMIT:
        raise OverflowError(f"{what} {x} exceeds the 2^63 operating range")


def is_prime(x: int) -> bool:
    """Deterministic primality test for 0 <= x < 2^63."""
    if x < 2:
        return False
    _check_range(x)
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_TIERS:
        if x < bound:
            witnesses = bases
            break
    # past trial division x >= 67, above every base of its tier
    for a in witnesses:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


# the bound of the last tier before the 2^64 one in _MR_TIERS; inputs below it
# are also below 2^50, where _sqmod's float quotient is exact
BATCH_BOUND = _MR_TIERS[-2][0]
_TIER_BOUNDS = np.array([bound for bound, _ in _MR_TIERS[:-1]], dtype=np.int64)


def _sqmod(y, m, c=None, out=None, work=None, lazy=False):
    """y^2 c mod m elementwise (c = 1 when None), for c >= 1, written to out
    (which may be y) or to a new array.

    For uint64 arrays (m < 2^32, 0 <= y < m) y^2 is exact, and so is
    (y^2 mod m) c while c < 2^32.  For int64 arrays (m < 2^50, -m < y < 2m)
    the float64 quotient of y^2 < 4 m^2 by m is within m 2^-50 < 1 of the
    true one, so with q its integer part y^2 - q m, taken from the wrapped
    low 64 bits, lies in (-m, 2m) and is exact; lazy, for c None, returns
    it as it is, ready for the next squaring.  Times c it is exact while
    |y^2 - q m| c < 2^63, which 2 m c <= 2^63 ensures, and one floor
    remainder brings it into [0, m).  work, for the int64 path, holds m as
    float64 and a float64 and an int64 buffer of y's size.
    """
    if out is None:
        out = np.empty_like(y)
    if y.dtype == np.uint64:
        np.multiply(y, y, out=out)
        out %= m
        if c is not None:
            out *= c
            out %= m
        return out
    mf, f, q = work or (m.astype(np.float64), np.empty(y.shape), np.empty_like(y))
    np.multiply(y, y, out=f, dtype=np.float64)
    f /= mf
    np.copyto(q, f, casting="unsafe")
    q *= m
    np.multiply(y, y, out=out)
    out -= q
    if c is not None:
        out *= c
    if not lazy:
        np.remainder(out, m, out=out)
    return out


def _sprp(v, a):
    """Strong probable-prime test to base a over odd int64 values a < v < 2^50.

    a^d mod v (v - 1 = d 2^s, d odd) goes by windows of w bits of d: w - 1
    plain squarings, then one whose factor c = a^digit folds the window in,
    with w as wide as _sqmod's bound on c allows.  The squarings run in
    place, in uint64 when every v is below 2^32, and the window digits go
    through one buffer; on the int64 path the plain squarings are lazy and
    each one with c reduces.  The last s - 1 squarings run over the values
    not yet decided, fewer each time.
    """
    vmax = int(v.max())
    d = v - 1
    # s from the float64 exponent of the lowest set bit of d
    s = (d & -d).astype(np.float64).view(np.int64)
    s >>= 52
    s -= 1023
    d >>= s
    if vmax < 1 << 32:
        m, cap, mf = v.view(np.uint64), 1 << 32, None
    else:
        m, cap, mf = v, (1 << 62) // vmax, v.astype(np.float64)
        f, q = np.empty(v.shape), np.empty_like(v)

    def square(y, m, mf, c=None, lazy=False):
        work = None if mf is None else (mf, f[:y.size], q[:y.size])
        _sqmod(y, m, c, y, work, lazy)

    w = 1
    while a ** ((2 << w) - 1) < cap:
        w += 1
    digits = np.array([a ** e for e in range(1 << w)], dtype=m.dtype)
    top = -(-int(d.max()).bit_length() // w) * w - w
    digit = d >> top
    y = digits[digit] % m
    c = np.empty_like(m)
    for shift in range(top - w, -1, -w):
        for _ in range(w - 1):
            square(y, m, mf, lazy=True)
        np.right_shift(d, shift, out=digit)
        digit &= (1 << w) - 1
        np.take(digits, digit, out=c)
        square(y, m, mf, c)
    ok = (y == 1) | (y == m - 1)
    # the last s - 1 squarings over the values still undecided, sorted by
    # descending s (a radix sort on int8), so that the ones with s > i take
    # an i-th squaring as a prefix of more[i] values. One that meets -1
    # squares on at 1, which never meets it again
    live = np.flatnonzero(~ok & (s > 1))
    live = live[np.argsort(-s[live].astype(np.int8), kind="stable")]
    y, m, minus = y[live], m[live], m[live] - 1
    mf = None if mf is None else mf[live]
    more = np.bincount(s[live], minlength=2)[:0:-1].cumsum()[::-1]
    for k in more[1:].tolist():
        square(y[:k], m[:k], None if mf is None else mf[:k])
        ok[live[np.flatnonzero(y[:k] == minus[:k])]] = True
    return ok


def is_prime_batch(values) -> np.ndarray:
    """is_prime over an array of values < 2^63, as a bool array.

    One pass of the strong tests, no trial division: 2 is prime, other even
    values and values below 2 are not, every odd value from 3 up takes the
    base 2 and those passing it the other bases of their tier in _MR_TIERS,
    which is exhaustive for every odd value, and values at or above
    BATCH_BOUND take the scalar is_prime.  Correct on any input; fast on
    values presieved of small factors, as the cell kernel's are.
    """
    v = np.asarray(values, dtype=np.int64)
    vals = v.reshape(-1)
    out = vals == 2
    big = vals >= BATCH_BOUND
    idx = np.flatnonzero((vals & 1).astype(bool) & (vals > 2) & ~big)
    if idx.size:
        idx = idx[_sprp(vals[idx], 2)]
    tier = np.searchsorted(_TIER_BOUNDS, vals[idx], side="right")
    for t, (_, bases) in enumerate(_MR_TIERS[:-1]):
        sub = idx[tier == t]
        for a in bases[1:]:
            if not sub.size:
                break
            sub = sub[_sprp(vals[sub], a)]
        out[sub] = True
    for i in np.flatnonzero(big).tolist():
        out[i] = is_prime(int(vals[i]))
    return out.reshape(v.shape)


def candidate_bound(N: int, K: int) -> int:
    """Largest candidate value K N^2 + isqrt(4K) N + 1 over [1, N] x [1, K].

    The guard of every rectangle routine: ValueError for a side below 1,
    OverflowError once the value leaves the 2^63 operating range.
    """
    if N < 1 or K < 1:
        raise ValueError("rectangle bounds must be positive")
    vmax = K * N * N + math.isqrt(4 * K) * N + 1
    _check_range(vmax, "largest candidate")
    return vmax


def iroot(x: int, r: int) -> int:
    """Largest integer y with y^r <= x (x >= 0, r >= 1)."""
    if x < 0 or r < 1:
        raise ValueError("iroot needs x >= 0, r >= 1")
    if r == 1 or x < 2:
        return x
    if r == 2:
        return math.isqrt(x)
    # float seed, then exact correction; the loops move at most a step or two.
    # For x >= 2 the seed rounds to 1 or more, and the first loop takes every
    # x < 2^r down to 1
    y = int(round(x ** (1.0 / r)))
    while y ** r > x:
        y -= 1
    while (y + 1) ** r <= x:
        y += 1
    return y


def prime_power_table(primes, bound):
    """(q, p, j) as int64 arrays sorted by q: every q = p^j <= bound with
    j >= 3 and p from the ascending array primes, which reaches iroot(bound, 3)."""
    p = primes[:np.searchsorted(primes, iroot(bound, 3), side="right")]
    levels = [(p ** 3, p, np.full(p.size, 3))]
    while (keep := levels[-1][0] <= bound // levels[-1][1]).any():
        q, p, j = (x[keep] for x in levels[-1])
        levels.append((q * p, p, j + 1))
    q, p, j = map(np.concatenate, zip(*levels))
    order = np.argsort(q)
    return q[order], p[order], j[order]


# (r, 67^r) for the prime root degrees r with 67^r < 2^63: once q has no prime
# factor up to 61, a root of degree r >= 11 would be below 67
_ROOT_BOUNDS = tuple((r, 67 ** r) for r in _SMALL_PRIMES if 67 ** r < LIMIT)


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Write q = p^m with p prime, or return None.

    Trial division by the primes up to 61 settles every q with such a factor
    p: it is p^m or no prime power.  Otherwise every prime factor is >= 67,
    so q = p^m needs 67^m <= q, and below 2^63 only the prime root degrees
    r in {2, 3, 5, 7} (67^r <= q) can occur.  Those roots are stripped,
    repeatedly, and what remains must be prime.
    """
    if q < 2:
        return None
    _check_range(q)
    for p in _SMALL_PRIMES:
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 else None
    m = 1
    for r, bound in _ROOT_BOUNDS:
        while bound <= q:
            root = iroot(q, r)
            if root ** r != q:
                break
            q, m = root, m * r
    if is_prime(q):
        return (q, m)
    return None


DEFAULT_SEGMENT = 1 << 22


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain sieve (limit stays modest: <= sqrt of targets)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask.nonzero()[0].astype(np.int64)


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """All primes in the inclusive range [lo, hi], ascending.

    Segmented: memory is bounded by DEFAULT_SEGMENT, not by hi.
    """
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    _check_range(hi, "sieve bound")
    lo = max(lo, 2)
    if lo > hi:
        return np.empty(0, dtype=np.int64)
    base = _base_primes(math.isqrt(hi))
    out = []
    start = lo
    while start <= hi:
        stop = min(start + DEFAULT_SEGMENT - 1, hi)
        mask = np.ones(stop - start + 1, dtype=bool)
        for p in base.tolist():
            if p * p > stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            mask[first - start :: p] = False
        out.append(mask.nonzero()[0].astype(np.int64) + start)
        start = stop + 1
    return np.concatenate(out)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division with early primality exits.

    Fine for inputs whose second-largest prime factor is below ~10^5; that
    covers every internal call site (orders of small groups, q-1 for small
    prime powers, totients).
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    _check_range(n)
    out: dict[int, int] = {}
    prime_rest = is_prime(n)
    for p in itertools.chain(_SMALL_PRIMES, itertools.count(67, 2)):
        if prime_rest or p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
            prime_rest = is_prime(n)
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** i for d in ds for i in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) for an odd prime p, via Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError("legendre_symbol needs an odd prime modulus")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r

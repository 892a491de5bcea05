"""Exact integer number theory in the 64-bit range.

Primality here is deterministic: below 2^63 the Miller-Rabin witness tiers
used are known-exhaustive, so a composite never slips through.  That matters
because a single misclassified candidate flips a set membership downstream.
`is_prime_batch` runs the same tiers over a numpy int64 array at once, with
bases 2, 3, 5, 7, 11, 13, 17, which are exhaustive below BATCH_BOUND =
341,550,071,728,321 (OEIS A014233); values at or above it take the scalar
test.  Scalar values are plain Python ints (exact); range limits are
enforced explicitly so callers get an OverflowError instead of silently huge
computations.
"""

from __future__ import annotations

import math

import numpy as np

LIMIT = 1 << 63

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# Verified deterministic witness tiers: each base list is exhaustive for
# inputs below the paired bound.  The last tier covers everything below 2^64.
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (3215031751, (2, 3, 5, 7)),
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
    for a in witnesses:
        a %= x
        if a == 0:
            continue
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
BATCH_BOUND = _MR_TIERS[3][0]


def _sqmod(y, m, c=1):
    """y^2 c mod m elementwise for int64 arrays, 0 <= y < m < 2^50, c <= 17.

    The float64 quotient of y^2 by m is off by at most one, so y^2 - q m,
    taken from the wrapped low 64 bits, lies in (-m, 2m) and is exact; times
    c it stays below 2^56, and one floor remainder brings it into [0, m).
    """
    q = (y.astype(np.float64) * y / m).astype(np.int64)
    return np.remainder((y * y - q * m) * c, m)


def _sprp(v, d, s, a):
    """Strong probable-prime test to base a, elementwise: v - 1 = d 2^s, d odd."""
    y = np.ones_like(v)
    for bit in range(int(d.max()).bit_length() - 1, -1, -1):
        y = _sqmod(y, v, 1 + (a - 1) * ((d >> bit) & 1))
    minus = v - 1
    ok = (y == 1) | (y == minus)
    for i in range(1, int(s.max())):
        live = np.flatnonzero(~ok & (s > i))
        if live.size == 0:
            break
        y[live] = _sqmod(y[live], v[live])
        ok[live] = y[live] == minus[live]
    return ok


def is_prime_batch(values) -> np.ndarray:
    """is_prime over an array of 0 <= values < 2^63, as a bool array.

    Trial division by the primes up to 61, then the strong probable-prime
    tests of _MR_TIERS in numpy, bases 2, 3, 5, 7, 11, 13, 17 in turn, each
    run on the values that passed the ones before; a value is settled prime
    once its tier's bases are passed.  Those bases are exhaustive below
    BATCH_BOUND = 341,550,071,728,321 (OEIS A014233); values at or above it
    go to the scalar is_prime.
    """
    v = np.asarray(values, dtype=np.int64)
    out = np.zeros(v.shape, dtype=bool)
    flat, vals = out.reshape(-1), v.reshape(-1)
    wide = vals >= BATCH_BOUND
    for i in np.flatnonzero(wide).tolist():
        flat[i] = is_prime(int(vals[i]))
    small = vals <= _SMALL_PRIMES[-1]
    flat[small] = np.isin(vals[small], _SMALL_PRIMES)
    keep = ~(small | wide)
    rem = np.empty_like(vals)
    for p in _SMALL_PRIMES:
        keep &= np.remainder(vals, p, out=rem) != 0
    idx = np.flatnonzero(keep)
    w = vals[idx]
    low = (w - 1) & (1 - w)
    d = (w - 1) // low
    s = np.log2(low).astype(np.int64)
    done = 0
    for bound, bases in _MR_TIERS[:4]:
        for a in bases[done:]:
            if w.size:
                passed = _sprp(w, d, s, a)
                idx, w, d, s = idx[passed], w[passed], d[passed], s[passed]
        done = len(bases)
        settled = w < bound
        flat[idx[settled]] = True
        open_ = ~settled
        idx, w, d, s = idx[open_], w[open_], d[open_], s[open_]
    return out


def isqrt(x: int) -> int:
    if x < 0:
        raise ValueError("isqrt of negative value")
    return math.isqrt(x)


def candidate_bound(N: int, K: int) -> int:
    """Largest candidate value K N^2 + isqrt(4K) N + 1 over [1, N] x [1, K].

    The guard of every rectangle routine: ValueError for a side below 1,
    OverflowError once the value leaves the 2^63 operating range.
    """
    if N < 1 or K < 1:
        raise ValueError("rectangle bounds must be positive")
    vmax = K * N * N + isqrt(4 * K) * N + 1
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
    if x.bit_length() <= r:
        return 1
    # float seed, then exact correction; the loops move at most a step or two
    y = int(round(x ** (1.0 / r)))
    if y < 1:
        y = 1
    while y ** r > x:
        y -= 1
    while (y + 1) ** r <= x:
        y += 1
    return y


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
    return np.flatnonzero(mask).astype(np.int64)


def primes_in_range(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT) -> np.ndarray:
    """All primes in the inclusive range [lo, hi], ascending.

    Segmented: memory is bounded by segment_size, not by hi.
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
        stop = min(start + segment_size - 1, hi)
        mask = np.ones(stop - start + 1, dtype=bool)
        for p in base:
            p = int(p)
            if p * p > stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            mask[first - start :: p] = False
        if start <= 1:
            mask[: 2 - start] = False
        seg = np.flatnonzero(mask).astype(np.int64) + start
        out.append(seg)
        start = stop + 1
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def pi_progression(x: int, m: int, a: int, count_prime_powers: bool = False) -> int:
    """pi(x; m, a): primes p <= x with p = a (mod m).

    With count_prime_powers set, counts prime powers p^j <= x (j >= 1) in the
    progression instead.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError("residue must be coprime to the modulus")
    _check_range(x, "count bound")
    if x < 2:
        return 0
    count = 0
    for seg_lo in range(2, x + 1, DEFAULT_SEGMENT):
        seg_hi = min(seg_lo + DEFAULT_SEGMENT - 1, x)
        ps = primes_in_range(seg_lo, seg_hi)
        if m == 1:
            count += len(ps)
        else:
            count += int(np.count_nonzero(ps % m == a))
    if count_prime_powers and x >= 4:
        for p in primes_in_range(2, math.isqrt(x)):
            v = int(p) * int(p)
            while v <= x:
                if v % m == a:
                    count += 1
                v *= int(p)
    return count


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
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n > 1 and not is_prime(n):
        p = _SMALL_PRIMES[-1] + 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
                if n == 1 or is_prime(n):
                    break
            p += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
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

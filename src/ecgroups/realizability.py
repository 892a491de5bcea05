"""Decide whether Z_n x Z_kn occurs as an elliptic curve group over some F_q.

The decision runs in two stages.  Waterhouse's classification says which
Frobenius traces a occur for curves over F_{p^m}: six cases, each a side
condition on (p, m, a).  Rueck's refinement then says which group structures
occur inside an admissible order N = q + 1 - a: writing N = p^e * n1 * n2 with
n1 | n2 and p not dividing n1*n2, the group Z_{p^e} x Z_{n1} x Z_{n2} occurs
iff n1 | q - 1, except in the full-square-trace case where n1 = n2 is forced.

For a target shape (n, k) over F_q this specializes to: q = kn^2 + ln + 1 for
an integer l with l^2 <= 4k (so the trace is a = ln + 2), the p-part of the
group must be cyclic (p cannot divide n; automatic once q = 1 mod n), n1 = n,
and n2 = kn / p^{v_p(k)}.  So n1 = n2 amounts to k being a power of p, that
is to k = 1: in the full-square case k n^2 = (p^(m/2) -+ 1)^2 is prime to p.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .arith import _check_range, candidate_bound, is_prime, prime_power_decompose


@dataclass(frozen=True)
class GroupShape:
    """The pair (n, k) standing for the group Z_n x Z_kn."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("shape needs n >= 1 and k >= 1")

    @property
    def order(self) -> int:
        return self.k * self.n * self.n

    @property
    def exponent(self) -> int:
        return self.k * self.n


class WaterhouseCase(enum.Enum):
    """The six admissible-trace families over F_{p^m}."""

    OrdinaryCoprime = "OrdinaryCoprime"          # gcd(a, p) = 1
    FullSquareTrace = "FullSquareTrace"          # m even, a = +-2 sqrt(q)
    ThirdSquareTrace = "ThirdSquareTrace"        # m even, p != 1 mod 3, a = +-sqrt(q)
    SmallCharOddTrace = "SmallCharOddTrace"      # m odd, p in {2,3}, a = +-p^((m+1)/2)
    ZeroTraceEven = "ZeroTraceEven"              # m even, p != 1 mod 4, a = 0
    ZeroTraceOdd = "ZeroTraceOdd"                # m odd, a = 0


@dataclass(frozen=True)
class Witness:
    """A certified realization of `shape` over the field with q = p^m elements."""

    shape: GroupShape
    q: int
    p: int
    m: int
    ell: int
    trace: int
    case: WaterhouseCase

    def revalidate(self):
        """Recompute every invariant from scratch; raises on any mismatch."""
        n, k = self.shape.n, self.shape.k
        assert self.p ** self.m == self.q
        assert is_prime(self.p)
        assert self.q == k * n * n + self.ell * n + 1
        assert self.ell * self.ell <= 4 * k
        assert self.trace == self.ell * n + 2 == self.q + 1 - k * n * n
        assert self.trace * self.trace <= 4 * self.q
        assert (self.q - 1) % n == 0
        assert trace_admissible(self.p, self.m, self.trace) is self.case
        if self.case is WaterhouseCase.FullSquareTrace:
            assert k == 1
        return self


def trace_admissible(p: int, m: int, a: int) -> WaterhouseCase | None:
    """The Waterhouse case admitting trace a over F_{p^m}, or None.

    At most one case holds: OrdinaryCoprime needs gcd(a, p) = 1, every
    other case has p | a, and those differ in the parity of m or in |a|.
    Proves p prime first and raises ValueError when it is not; callers that
    hold a p already proven prime use _trace_case.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    return _trace_case(p, m, a)


def _trace_case(p: int, m: int, a: int) -> WaterhouseCase | None:
    """trace_admissible for a prime p, taken on trust."""
    q = p ** m
    _check_range(q, "field size p^m")
    if a * a > 4 * q:
        return None
    if math.gcd(a, p) == 1:
        return WaterhouseCase.OrdinaryCoprime
    if m % 2 == 0:
        root = p ** (m // 2)
        if abs(a) == 2 * root:
            return WaterhouseCase.FullSquareTrace
        if p % 3 != 1 and abs(a) == root:
            return WaterhouseCase.ThirdSquareTrace
        if p % 4 != 1 and a == 0:
            return WaterhouseCase.ZeroTraceEven
    else:
        if p in (2, 3) and abs(a) == p ** ((m + 1) // 2):
            return WaterhouseCase.SmallCharOddTrace
        if a == 0:
            return WaterhouseCase.ZeroTraceOdd
    return None


def candidate_values(shape: GroupShape) -> Iterator[tuple[int, int]]:
    """(l, kn^2 + ln + 1) for every l with l^2 <= 4k and value >= 2, l ascending.

    Lazy, so that a search stopping at its first hit never builds the
    window; the range guard runs at the call.
    """
    n, k = shape.n, shape.k
    candidate_bound(n, k)
    base = k * n * n + 1
    L = math.isqrt(4 * k)  # |l| <= 2 sqrt(k) as the exact predicate l^2 <= 4k
    return ((ell, base + ell * n) for ell in range(-L, L + 1) if base + ell * n >= 2)


def shape_realizable_over(q: int, shape: GroupShape,
                          _decomp: tuple[int, int] | None = None) -> Witness | None:
    """Witness that some curve over F_q has group Z_n x Z_kn, or None.

    _decomp short-circuits the prime-power decomposition of q when the caller
    already knows it (bulk sweeps), its p proven prime by a sieve or by
    prime_power_decompose; p is not proven again.
    """
    d = _decomp if _decomp is not None else prime_power_decompose(q)
    if d is None:
        raise ValueError(f"{q} is not a prime power")
    p, m = d
    n, k = shape.n, shape.k
    if (q - 1) % n != 0:
        return None
    ell = (q - 1 - k * n * n) // n  # exact: q = 1 mod n
    if ell * ell > 4 * k:
        return None
    a = ell * n + 2
    case = _trace_case(p, m, a)
    if case is None:
        return None
    # p | n would make the p-part of the target group rank 2; it cannot happen
    # here because q = 1 mod n already forces gcd(n, p) = 1.
    if case is WaterhouseCase.FullSquareTrace and k != 1:
        return None  # the full-square case forces n1 = n2
    return Witness(shape=shape, q=q, p=p, m=m, ell=ell, trace=a, case=case)


def hits_realizable(n, k, q, p, m) -> np.ndarray:
    """shape_realizable_over in bulk over hits q = p^m = k n^2 + l n + 1,
    l^2 <= 4k, p proven prime: True where Z_n x Z_kn occurs over F_q.

    n, q and p are int64 arrays of one shape, k and m such arrays or ints.
    By Rueck's rule a trace a = q + 1 - k n^2 prime to p is realized, and
    |a| = 2 p^(m/2) at even m only with k = 1 (k n^2 = (p^(m/2) -+ 1)^2 is
    prime to p); the rest go to the predicate. a is exact where k n^2
    wraps: int64 is exact mod 2^64, and |a| <= 2 sqrt(q).
    """
    a = q + 1 - k * n * n
    full = (m % 2 == 0) & (np.abs(a) == 2 * p ** (m // 2))
    out = (a % p != 0) | (full & (k == 1))
    rest = (~(out | full)).nonzero()[0]
    if rest.size:
        hits = zip(*(x[rest].tolist() if np.ndim(x) else [x] * rest.size for x in (n, k, q, p, m)))
        for i, (n_, k_, q_, p_, m_) in zip(rest.tolist(), hits):
            out[i] = shape_realizable_over(q_, GroupShape(n_, k_), _decomp=(p_, m_)) is not None
    return out


def smallest_prime_witness(shape: GroupShape) -> int | None:
    """Smallest prime among the candidate values (prime-field realizability).

    Over a prime field no structure condition can fail, so a prime candidate
    is already a witness.
    """
    for _, v in candidate_values(shape):
        if is_prime(v):
            return v
    return None


def smallest_prime_power_witness(shape: GroupShape) -> Witness | None:
    """Witness over the smallest q realizing the shape, or None.

    Only prime-power candidate values can be field sizes. They are
    decomposed one at a time and the search stops at the first realizing q.
    """
    for _, q in candidate_values(shape):
        d = prime_power_decompose(q)
        if d is not None:
            w = shape_realizable_over(q, shape, _decomp=d)
            if w is not None:
                return w
    return None


def witness_primes(shape: GroupShape) -> list[int]:
    """The full finite set of primes p = kn^2 + ln + 1 with l^2 <= 4k, ascending."""
    return [v for _, v in candidate_values(shape) if is_prime(v)]


def square_witness_primes(shape: GroupShape) -> list[int]:
    """Primes p whose square is a candidate value for `shape`, ascending.

    The p with p^2 = 1 mod n and |p^2 - (kn^2 + 1)| <= n isqrt(4k): at most
    three integers near n sqrt(k), whatever the window's length. At most one
    exists outside two explicit exception families.
    """
    n, k = shape.n, shape.k
    candidate_bound(n, k)
    base, w = k * n * n + 1, n * math.isqrt(4 * k)
    # base - w >= (n sqrt(k) - 1)^2 >= 0
    return [p for p in range(math.isqrt(base - w), math.isqrt(base + w) + 1)
            if abs(p * p - base) <= w and (p * p - base) % n == 0 and is_prime(p)]


def hasse_window(q: int) -> tuple[int, int]:
    """Inclusive range of curve orders over F_q: |q + 1 - N| <= 2 sqrt(q)."""
    w = math.isqrt(4 * q)
    return q + 1 - w, q + 1 + w
